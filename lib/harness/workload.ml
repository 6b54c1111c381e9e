type t = { mutable hungry_transitions : int }

let sample rng (lo, hi) =
  if lo > hi then invalid_arg "Workload: empty range";
  if lo = hi then lo else Sim.Rng.int_in rng lo hi

let attach ~engine ~faults ~n ~rng ~workload (instance : Dining.Instance.t) =
  let t = { hungry_transitions = 0 } in
  let think_delay () = sample rng workload.Scenario.think in
  let eat_delay () = max 1 (sample rng workload.Scenario.eat) in
  (* Each process's two timer actions are built once, so a transition
     allocates only the engine's event. *)
  let stop = Array.init n (fun pid () -> instance.stop_eating pid) in
  let hunger =
    Array.init n (fun pid () ->
        if not (Net.Faults.is_crashed faults pid) then instance.become_hungry pid)
  in
  instance.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Hungry -> t.hungry_transitions <- t.hungry_transitions + 1
      | Dining.Types.Eating ->
          ignore (Sim.Engine.schedule_after engine ~owner:pid ~delay:(eat_delay ()) stop.(pid))
      | Dining.Types.Thinking ->
          ignore
            (Sim.Engine.schedule_after engine ~owner:pid ~delay:(think_delay ()) hunger.(pid)));
  for pid = 0 to n - 1 do
    ignore (Sim.Engine.schedule engine ~owner:pid ~at:(think_delay ()) hunger.(pid))
  done;
  t

let hungry_transitions t = t.hungry_transitions
