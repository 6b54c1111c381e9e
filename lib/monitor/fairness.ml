type overtake = {
  time : Sim.Time.t;
  overtaker : Dining.Types.pid;
  victim : Dining.Types.pid;
  session_start : Sim.Time.t;
  count : int;
}

(* Counts live per directed slot of the victim's CSR row: the count of
   (overtaker j, victim v) sits at slot (v, j). An eat by [pid] then
   resets its own row with one fill and bumps each hungry neighbor's
   cell after a binary search, with no tuple key. The overtake log is
   five flat int columns in time order; {!overtakes} rebuilds the
   records at report time. *)
type t = {
  engine : Sim.Engine.t;
  graph : Cgraph.Graph.t;
  faults : Net.Faults.t;
  off : int array; (* CSR offsets, owned by the graph *)
  nbr : int array; (* CSR targets, owned by the graph *)
  hungry_since : Sim.Time.t array; (* -1 = not hungry *)
  counts : int array; (* slot (victim, overtaker) -> consecutive count this session *)
  o_time : Ivec.t;
  o_overtaker : Ivec.t;
  o_victim : Ivec.t;
  o_session : Ivec.t;
  o_count : Ivec.t;
}

let attach engine graph faults (instance : Dining.Instance.t) =
  let n = Cgraph.Graph.n graph in
  let t =
    {
      engine;
      graph;
      faults;
      off = Cgraph.Graph.csr_offsets graph;
      nbr = Cgraph.Graph.csr_targets graph;
      hungry_since = Array.make n (-1);
      counts = Array.make (Cgraph.Graph.dir_count graph) 0;
      o_time = Ivec.create ();
      o_overtaker = Ivec.create ();
      o_victim = Ivec.create ();
      o_session = Ivec.create ();
      o_count = Ivec.create ();
    }
  in
  instance.add_listener (fun pid phase ->
      let now = Sim.Engine.now engine in
      match phase with
      | Dining.Types.Hungry -> t.hungry_since.(pid) <- now
      | Dining.Types.Eating ->
          (* The eater's own hungry session ends: counts against it reset. *)
          t.hungry_since.(pid) <- -1;
          let lo = t.off.(pid) and hi = t.off.(pid + 1) in
          Array.fill t.counts lo (hi - lo) 0;
          (* And it overtakes every currently hungry live neighbor. *)
          for s = lo to hi - 1 do
            let victim = t.nbr.(s) in
            let session_start = t.hungry_since.(victim) in
            if session_start >= 0 && not (Net.Faults.is_crashed t.faults victim) then begin
              let k = Cgraph.Graph.dir_index graph victim pid in
              let c = t.counts.(k) + 1 in
              t.counts.(k) <- c;
              Ivec.push t.o_time now;
              Ivec.push t.o_overtaker pid;
              Ivec.push t.o_victim victim;
              Ivec.push t.o_session session_start;
              Ivec.push t.o_count c
            end
          done
      | Dining.Types.Thinking -> t.hungry_since.(pid) <- -1);
  t

let log_length t = Ivec.length t.o_time

let overtakes t =
  List.init (log_length t) (fun i ->
      {
        time = Ivec.get t.o_time i;
        overtaker = Ivec.get t.o_overtaker i;
        victim = Ivec.get t.o_victim i;
        session_start = Ivec.get t.o_session i;
        count = Ivec.get t.o_count i;
      })

let max_consecutive t =
  let best = ref 0 in
  for i = 0 to log_length t - 1 do
    best := max !best (Ivec.get t.o_count i)
  done;
  !best

let max_consecutive_for_sessions_from t time =
  let best = ref 0 in
  for i = 0 to log_length t - 1 do
    if Ivec.get t.o_session i >= time then best := max !best (Ivec.get t.o_count i)
  done;
  !best

(* Suffix form: only overtake events at or after [time] count, but a
   victim's session may have started earlier (a starved victim's single
   session spans the whole run — exactly the case the sessions-from
   variant cannot see). The answer is the largest number of post-cutoff
   events sharing one (overtaker, victim, session_start) key. One pass
   in time order suffices: per (overtaker, victim) slot, session starts
   never decrease along the log, so a key's events form one contiguous
   run of that slot's events, counted by comparing each event's session
   start with the slot's previous one. *)
let max_consecutive_after t time =
  let dirs = Array.length t.counts in
  let run_start = Array.make dirs (-1) and run_len = Array.make dirs 0 in
  let best = ref 0 in
  for i = 0 to log_length t - 1 do
    if Ivec.get t.o_time i >= time then begin
      let k = Cgraph.Graph.dir_index t.graph (Ivec.get t.o_victim i) (Ivec.get t.o_overtaker i) in
      let session = Ivec.get t.o_session i in
      if run_start.(k) = session then run_len.(k) <- run_len.(k) + 1
      else begin
        run_start.(k) <- session;
        run_len.(k) <- 1
      end;
      if run_len.(k) > !best then best := run_len.(k)
    end
  done;
  !best

let windowed_max t ~window ~horizon =
  if window <= 0 then invalid_arg "Fairness.windowed_max: window must be positive";
  let buckets = (horizon / window) + 1 in
  let maxima = Array.make buckets 0 in
  for i = 0 to log_length t - 1 do
    let time = Ivec.get t.o_time i in
    if time <= horizon then begin
      let b = time / window in
      let c = Ivec.get t.o_count i in
      if c > maxima.(b) then maxima.(b) <- c
    end
  done;
  Array.to_list (Array.mapi (fun b m -> (float_of_int (b * window), float_of_int m)) maxima)
