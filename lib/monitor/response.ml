type session = { pid : Dining.Types.pid; started : Sim.Time.t; served : Sim.Time.t }

(* Per-pid open-session starts and flat, append-only session columns:
   a transition touches one array cell and a completed session pushes
   three ints. The list accessors rebuild records at report time. *)
type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  open_since : Sim.Time.t array; (* pid -> start of its open session; -1 = none *)
  s_pid : Ivec.t; (* completed sessions, oldest first *)
  s_started : Ivec.t;
  s_served : Ivec.t;
}

let attach engine faults (instance : Dining.Instance.t) =
  let t =
    {
      engine;
      faults;
      open_since = Array.make (Net.Faults.n faults) (-1);
      s_pid = Ivec.create ();
      s_started = Ivec.create ();
      s_served = Ivec.create ();
    }
  in
  instance.add_listener (fun pid phase ->
      let now = Sim.Engine.now engine in
      match phase with
      | Dining.Types.Hungry -> t.open_since.(pid) <- now
      | Dining.Types.Eating ->
          let started = t.open_since.(pid) in
          if started >= 0 then begin
            t.open_since.(pid) <- -1;
            Ivec.push t.s_pid pid;
            Ivec.push t.s_started started;
            Ivec.push t.s_served now
          end
      | Dining.Types.Thinking -> ());
  t

let served_count t = Ivec.length t.s_pid

let completed t =
  List.init (served_count t) (fun i ->
      { pid = Ivec.get t.s_pid i; started = Ivec.get t.s_started i; served = Ivec.get t.s_served i })

let durations t =
  List.init (served_count t) (fun i -> Ivec.get t.s_served i - Ivec.get t.s_started i)

let summary t = Stats.Summary.of_ints (durations t)

let open_sessions t =
  let acc = ref [] in
  for pid = Array.length t.open_since - 1 downto 0 do
    let started = t.open_since.(pid) in
    if started >= 0 && not (Net.Faults.is_crashed t.faults pid) then acc := (pid, started) :: !acc
  done;
  !acc

let starved t ~older_than =
  let now = Sim.Engine.now t.engine in
  List.filter_map
    (fun (pid, started) -> if now - started > older_than then Some pid else None)
    (open_sessions t)

let response_series t ~bucket =
  if bucket <= 0 then invalid_arg "Response.response_series: bucket must be positive";
  let n = served_count t in
  let buckets = if n = 0 then 0 else (Ivec.get t.s_served (n - 1) / bucket) + 1 in
  let total = Array.make buckets 0 and count = Array.make buckets 0 in
  for i = 0 to n - 1 do
    let served = Ivec.get t.s_served i in
    let b = served / bucket in
    total.(b) <- total.(b) + (served - Ivec.get t.s_started i);
    count.(b) <- count.(b) + 1
  done;
  let acc = ref [] in
  for b = buckets - 1 downto 0 do
    if count.(b) > 0 then
      acc :=
        (float_of_int (b * bucket), float_of_int total.(b) /. float_of_int count.(b)) :: !acc
  done;
  !acc
