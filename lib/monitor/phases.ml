(* Per-pid phase-entry times (-1 = none) and flat wait logs. The pid
   range is not known at attach time (the monitor sees only the trace
   and the instance), so the per-pid arrays grow on first sight of a
   pid. *)
type t = {
  engine : Sim.Engine.t;
  mutable hungry_at : Sim.Time.t array;
  mutable entered_at : Sim.Time.t array;
  doorway : Ivec.t; (* oldest first *)
  fork : Ivec.t;
  h_doorway : Obs.Metrics.histogram;
  h_fork : Obs.Metrics.histogram;
}

let ensure t pid =
  let len = Array.length t.hungry_at in
  if pid >= len then begin
    let grow a =
      let b = Array.make (max (pid + 1) (2 * len)) (-1) in
      Array.blit a 0 b 0 len;
      b
    in
    t.hungry_at <- grow t.hungry_at;
    t.entered_at <- grow t.entered_at
  end

let attach ?metrics engine trace (instance : Dining.Instance.t) =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      engine;
      hungry_at = [||];
      entered_at = [||];
      doorway = Ivec.create ();
      fork = Ivec.create ();
      h_doorway = Obs.Metrics.histogram metrics "daemon.doorway_wait";
      h_fork = Obs.Metrics.histogram metrics "daemon.fork_wait";
    }
  in
  (* Typed records straight off the light channel: only the doorway mark
     matters here, and matching it directly skips the legacy row view
     (which renders every suspicion flip's detail string). *)
  Obs.Recorder.on_light trace (fun r ->
      match r.kind with
      | Obs.Record.Mark { tag = "enter_doorway"; subject; _ } ->
          ensure t subject;
          let started = t.hungry_at.(subject) in
          if started >= 0 then begin
            t.entered_at.(subject) <- r.time;
            Ivec.push t.doorway (r.time - started);
            Obs.Metrics.observe t.h_doorway (r.time - started)
          end
      | _ -> ());
  instance.add_listener (fun pid phase ->
      let now = Sim.Engine.now engine in
      ensure t pid;
      match phase with
      | Dining.Types.Hungry -> t.hungry_at.(pid) <- now
      | Dining.Types.Eating ->
          t.hungry_at.(pid) <- -1;
          let entered = t.entered_at.(pid) in
          if entered >= 0 then begin
            t.entered_at.(pid) <- -1;
            Ivec.push t.fork (now - entered);
            Obs.Metrics.observe t.h_fork (now - entered)
          end
      | Dining.Types.Thinking ->
          t.hungry_at.(pid) <- -1;
          t.entered_at.(pid) <- -1);
  t

let to_list v = List.init (Ivec.length v) (Ivec.get v)
let doorway_waits t = to_list t.doorway
let fork_waits t = to_list t.fork
let doorway_summary t = Stats.Summary.of_ints (doorway_waits t)
let fork_summary t = Stats.Summary.of_ints (fork_waits t)
