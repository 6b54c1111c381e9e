type violation = { time : Sim.Time.t; eater : Dining.Types.pid; neighbor : Dining.Types.pid }

type t = {
  engine : Sim.Engine.t;
  graph : Cgraph.Graph.t;
  faults : Net.Faults.t;
  eating : bool array;
  mutable violations : violation list; (* newest first *)
}

let attach engine graph faults (instance : Dining.Instance.t) =
  let t =
    {
      engine;
      graph;
      faults;
      eating = Array.make (Cgraph.Graph.n graph) false;
      violations = [];
    }
  in
  let off = Cgraph.Graph.csr_offsets graph and nbr = Cgraph.Graph.csr_targets graph in
  instance.add_listener (fun pid phase ->
      match phase with
      | Dining.Types.Eating ->
          t.eating.(pid) <- true;
          (* Walk the CSR row in place: no neighbor-array copy per eat. *)
          for s = off.(pid) to off.(pid + 1) - 1 do
            let j = nbr.(s) in
            if t.eating.(j) && not (Net.Faults.is_crashed t.faults j) then
              t.violations <-
                { time = Sim.Engine.now engine; eater = pid; neighbor = j } :: t.violations
          done
      | Thinking | Hungry -> t.eating.(pid) <- false);
  t

let violations t = List.rev t.violations
let count t = List.length t.violations
let count_after t time = List.length (List.filter (fun v -> v.time >= time) t.violations)

let last_violation_time t =
  match t.violations with [] -> None | v :: _ -> Some v.time
