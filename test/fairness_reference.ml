(* Reference definition of Monitor.Fairness.max_consecutive_after, kept
   as the monitor first computed it: filter the overtake log to the
   events at or after the cutoff, sort by (overtaker, victim,
   session_start), and take the longest run of one key. The monitor now
   answers in one pass over its log; the differential test in
   test_monitor.ml holds the two to the same value. *)

let max_consecutive_after (log : Monitor.Fairness.overtake list) time =
  let key (o : Monitor.Fairness.overtake) = (o.overtaker, o.victim, o.session_start) in
  let post = List.filter (fun (o : Monitor.Fairness.overtake) -> o.time >= time) log in
  let sorted = List.sort (fun a b -> compare (key a) (key b)) post in
  let rec go best current run = function
    | [] -> max best run
    | o :: rest ->
        if current = Some (key o) then go best current (run + 1) rest
        else go (max best run) (Some (key o)) 1 rest
  in
  go 0 None 0 sorted
