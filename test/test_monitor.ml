(* Tests for the runtime monitors, driven through a scripted mock daemon
   so that transition timing is fully controlled. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type mock = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  inst : Dining.Instance.t;
  fire : int -> Dining.Types.phase -> unit;
}

let mock ?(n = 3) ?(edges = [ (0, 1); (1, 2) ]) () =
  let engine = Sim.Engine.create () in
  let graph = Cgraph.Graph.of_edges ~n edges in
  let faults = Net.Faults.create engine ~n in
  let listeners = ref [] in
  let phases = Array.make n Dining.Types.Thinking in
  let inst =
    {
      Dining.Instance.name = "mock";
      become_hungry = (fun _ -> ());
      stop_eating = (fun _ -> ());
      phase = (fun pid -> phases.(pid));
      add_listener = (fun f -> listeners := !listeners @ [ f ]);
      check_invariants = (fun () -> ());
    }
  in
  let fire pid phase =
    phases.(pid) <- phase;
    List.iter (fun f -> f pid phase) !listeners
  in
  { engine; faults; graph; inst; fire }

(* Schedule a scripted transition at a virtual time. *)
let at m t pid phase = ignore (Sim.Engine.schedule m.engine ~at:t (fun () -> m.fire pid phase))

(* ----------------------------- Exclusion --------------------------- *)

let exclusion_detects_overlap () =
  let m = mock () in
  let ex = Monitor.Exclusion.attach m.engine m.graph m.faults m.inst in
  at m 10 0 Dining.Types.Eating;
  at m 20 1 Dining.Types.Eating;
  (* neighbors 0-1 overlap *)
  at m 30 0 Dining.Types.Thinking;
  at m 40 2 Dining.Types.Eating;
  (* 1 still eating and 1-2 are neighbors: second violation *)
  Sim.Engine.run_all m.engine;
  check int "two violations" 2 (Monitor.Exclusion.count ex);
  check bool "last at 40" true (Monitor.Exclusion.last_violation_time ex = Some 40);
  check int "after t=35" 1 (Monitor.Exclusion.count_after ex 35);
  match Monitor.Exclusion.violations ex with
  | [ v1; v2 ] ->
      check int "first eater" 1 v1.Monitor.Exclusion.eater;
      check int "first neighbor" 0 v1.Monitor.Exclusion.neighbor;
      check int "second eater" 2 v2.Monitor.Exclusion.eater
  | _ -> Alcotest.fail "expected 2 violations"

let exclusion_ignores_non_neighbors_and_crashed () =
  let m = mock () in
  let ex = Monitor.Exclusion.attach m.engine m.graph m.faults m.inst in
  (* 0 and 2 are not neighbors. *)
  at m 10 0 Dining.Types.Eating;
  at m 20 2 Dining.Types.Eating;
  (* A crashed eater does not count as a live violation partner. *)
  Net.Faults.schedule_crash m.faults ~pid:0 ~at:30;
  at m 40 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  check int "no violations" 1 (Monitor.Exclusion.count ex);
  (* wait: 1 eats at 40 while 2 (live) is eating and 1-2 are neighbors *)
  check bool "only live pair recorded" true
    ((List.hd (Monitor.Exclusion.violations ex)).Monitor.Exclusion.neighbor = 2)

(* ----------------------------- Fairness ---------------------------- *)

let fairness_counts_consecutive () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  (* 1 eats three times while 0 stays hungry *)
  at m 20 1 Dining.Types.Eating;
  at m 25 1 Dining.Types.Thinking;
  at m 30 1 Dining.Types.Eating;
  at m 35 1 Dining.Types.Thinking;
  at m 40 1 Dining.Types.Eating;
  at m 45 1 Dining.Types.Thinking;
  (* 0 finally eats: counter resets *)
  at m 50 0 Dining.Types.Eating;
  at m 55 0 Dining.Types.Thinking;
  at m 60 0 Dining.Types.Hungry;
  at m 70 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  check int "max consecutive 3" 3 (Monitor.Fairness.max_consecutive fair);
  check int "after reset only 1" 1 (Monitor.Fairness.max_consecutive_for_sessions_from fair 60);
  check int "session boundary respected" 3
    (Monitor.Fairness.max_consecutive_for_sessions_from fair 10)

let fairness_windowed_series () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  at m 5 0 Dining.Types.Hungry;
  at m 10 1 Dining.Types.Eating;
  at m 15 1 Dining.Types.Thinking;
  at m 110 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  let series = Monitor.Fairness.windowed_max fair ~window:100 ~horizon:200 in
  check bool "window 0 has count 1" true (List.nth series 0 = (0.0, 1.0));
  check bool "window 1 has count 2" true (List.nth series 1 = (100.0, 2.0))

let fairness_ignores_crashed_victims () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let fair = Monitor.Fairness.attach m.engine m.graph m.faults m.inst in
  at m 5 0 Dining.Types.Hungry;
  Net.Faults.schedule_crash m.faults ~pid:0 ~at:8;
  at m 10 1 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  check int "no overtakes of crashed victims" 0 (Monitor.Fairness.max_consecutive fair)

(* ----------------------------- Response ---------------------------- *)

let response_latency () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  at m 35 0 Dining.Types.Eating;
  at m 40 0 Dining.Types.Thinking;
  at m 50 1 Dining.Types.Hungry;
  (* 1 never served: open session *)
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "one completed session of 25" [ 25 ] (Monitor.Response.durations resp);
  check int "served count" 1 (Monitor.Response.served_count resp);
  check bool "open session for 1" true (Monitor.Response.open_sessions resp = [ (1, 50) ])

let response_starvation_threshold () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  at m 10 1 Dining.Types.Hungry;
  at m 5_000 1 Dining.Types.Eating;
  ignore (Sim.Engine.schedule m.engine ~at:20_000 (fun () -> ()));
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "0 starved at patience 10k" [ 0 ] (Monitor.Response.starved resp ~older_than:10_000);
  check (Alcotest.list int) "nobody starved at patience 30k" []
    (Monitor.Response.starved resp ~older_than:30_000)

let response_crashed_not_starved () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 10 0 Dining.Types.Hungry;
  Net.Faults.schedule_crash m.faults ~pid:0 ~at:100;
  ignore (Sim.Engine.schedule m.engine ~at:20_000 (fun () -> ()));
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "crashed hungry process is not a starvation" []
    (Monitor.Response.starved resp ~older_than:1_000)

let response_series_buckets () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let resp = Monitor.Response.attach m.engine m.faults m.inst in
  at m 0 0 Dining.Types.Hungry;
  at m 50 0 Dining.Types.Eating;
  at m 60 0 Dining.Types.Thinking;
  at m 100 0 Dining.Types.Hungry;
  at m 130 0 Dining.Types.Eating;
  Sim.Engine.run_all m.engine;
  let series = Monitor.Response.response_series resp ~bucket:100 in
  check bool "bucket 0 mean 50" true (List.mem (0.0, 50.0) series);
  check bool "bucket 100 mean 30" true (List.mem (100.0, 30.0) series)

(* ------------------------------ Phases ----------------------------- *)

let phases_split () =
  let m = mock ~n:2 ~edges:[ (0, 1) ] () in
  let trace = Sim.Trace.create () in
  let ph = Monitor.Phases.attach m.engine trace m.inst in
  let enter pid t =
    ignore
      (Sim.Engine.schedule m.engine ~at:t (fun () ->
           Sim.Trace.emit trace ~time:t ~subject:pid ~tag:"enter_doorway" ""))
  in
  at m 10 0 Dining.Types.Hungry;
  enter 0 40;
  at m 55 0 Dining.Types.Eating;
  at m 60 0 Dining.Types.Thinking;
  (* A second session that never completes. *)
  at m 100 0 Dining.Types.Hungry;
  Sim.Engine.run_all m.engine;
  check (Alcotest.list int) "doorway wait" [ 30 ] (Monitor.Phases.doorway_waits ph);
  check (Alcotest.list int) "fork wait" [ 15 ] (Monitor.Phases.fork_waits ph);
  check int "open session not sampled" 1 (Monitor.Phases.doorway_summary ph).count

let phases_real_algorithm () =
  (* End to end against the real core on a pair: both splits sum to the
     full response latency. *)
  let graph = Cgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let engine = Sim.Engine.create () in
  let faults = Net.Faults.create engine ~n:2 in
  let trace = Sim.Trace.create () in
  let algo =
    Dining.Algorithm.create ~engine ~faults ~graph ~delay:(Net.Delay.Fixed 5)
      ~rng:(Sim.Rng.create 1L) ~detector:(Fd.Never.create ()) ~trace ()
  in
  let inst = Dining.Algorithm.instance algo in
  let resp = Monitor.Response.attach engine faults inst in
  let ph = Monitor.Phases.attach engine trace inst in
  inst.become_hungry 0;
  Sim.Engine.run engine ~until:200;
  match
    (Monitor.Phases.doorway_waits ph, Monitor.Phases.fork_waits ph, Monitor.Response.durations resp)
  with
  | [ d ], [ f ], [ total ] ->
      check int "splits sum to the response" total (d + f);
      check bool "doorway took the ping round trip" true (d >= 10)
  | _ -> Alcotest.fail "expected exactly one completed session"

(* ------------------------ Recorded accessors ------------------------ *)

(* Every list and summary the monitors report, serialised. The monitors
   keep per-pid and per-slot arrays and flat int logs; the accessors
   rebuild the lists at report time, and must rebuild exactly the lists
   the earlier record-list monitors returned. *)
let fingerprint (r : Harness.Run.report) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  List.iter (fun (s : Monitor.Response.session) -> add "c%d,%d,%d;" s.pid s.started s.served)
    (Monitor.Response.completed r.response);
  List.iter (add "d%d;") (Monitor.Response.durations r.response);
  add "s%s;" (Format.asprintf "%a" Stats.Summary.pp (Monitor.Response.summary r.response));
  List.iter (fun (p, t) -> add "o%d,%d;" p t) (Monitor.Response.open_sessions r.response);
  List.iter (fun (x, y) -> add "r%h,%h;" x y) (Monitor.Response.response_series r.response ~bucket:1000);
  List.iter
    (fun (o : Monitor.Fairness.overtake) ->
      add "v%d,%d,%d,%d,%d;" o.time o.overtaker o.victim o.session_start o.count)
    (Monitor.Fairness.overtakes r.fairness);
  add "m%d,%d,%d,%d;" (Monitor.Fairness.max_consecutive r.fairness)
    (Monitor.Fairness.max_consecutive_for_sessions_from r.fairness (r.horizon / 3))
    (Monitor.Fairness.max_consecutive_after r.fairness (r.horizon / 3))
    (Monitor.Fairness.max_consecutive_after r.fairness 0);
  List.iter (fun (x, y) -> add "w%h,%h;" x y)
    (Monitor.Fairness.windowed_max r.fairness ~window:2000 ~horizon:r.horizon);
  List.iter (add "p%d;") (Monitor.Phases.doorway_waits r.phases);
  List.iter (add "f%d;") (Monitor.Phases.fork_waits r.phases);
  add "ps%s;" (Format.asprintf "%a" Stats.Summary.pp (Monitor.Phases.doorway_summary r.phases));
  add "fs%s;" (Format.asprintf "%a" Stats.Summary.pp (Monitor.Phases.fork_summary r.phases));
  List.iter
    (fun (v : Monitor.Exclusion.violation) -> add "x%d,%d,%d;" v.time v.eater v.neighbor)
    (Monitor.Exclusion.violations r.exclusion);
  Buffer.contents b


(* Scenarios with doorway waits, exclusion violations (an unreliable
   detector) and a baseline without a doorway, each with the counts and
   the fingerprint digest the record-list monitors produced on it:
   completed sessions, overtakes, doorway waits, exclusion violations. *)
let recorded =
  [
    ( { Harness.Scenario.default with
        topology = Cgraph.Topology.Grid (3, 3); seed = 21L;
        workload = Harness.Scenario.contended_workload; horizon = 20_000 },
      (1857, 4577, 1858, 19), "632a4e6384bf3d771be2c8a96b98ed05" );
    ( { Harness.Scenario.default with
        topology = Cgraph.Topology.Ring 6; seed = 5L;
        detector = Harness.Scenario.Unreliable { period = 900; duration = 120 };
        workload = Harness.Scenario.contended_workload; horizon = 20_000 },
      (1488, 2245, 1489, 220), "d741bf078d698549d268049fdff015e1" );
    ( { Harness.Scenario.default with
        topology = Cgraph.Topology.Clique 4; seed = 8L; algo = Harness.Scenario.Fork_only;
        detector = Harness.Scenario.Heartbeat { period = 20; initial_timeout = 30; bump = 25 };
        workload = Harness.Scenario.contended_workload; horizon = 15_000 },
      (502, 1341, 0, 0), "c87d2d958d7507038c568c79bb3ea704" );
  ]

let accessors_match_recorded () =
  List.iter
    (fun (s, (sessions, overtakes, doorways, violations), digest) ->
      let r = Harness.Run.run s in
      let counts =
        ( List.length (Monitor.Response.completed r.response),
          List.length (Monitor.Fairness.overtakes r.fairness),
          List.length (Monitor.Phases.doorway_waits r.phases),
          Monitor.Exclusion.count r.exclusion )
      in
      let quad = Alcotest.(pair (pair int int) (pair int int)) in
      let split (a, b, c, d) = ((a, b), (c, d)) in
      check quad "counts" (split (sessions, overtakes, doorways, violations)) (split counts);
      check Alcotest.string "fingerprint" digest (Digest.to_hex (Digest.string (fingerprint r))))
    recorded

(* The one-pass suffix count agrees with the sort-based reference on
   real overtake logs, at arbitrary cutoffs, over algorithms that do and
   do not bound overtaking. *)
let max_consecutive_after_matches_reference =
  QCheck.Test.make ~name:"fairness: suffix count matches the sort-based reference" ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_bound 3) (list_of_size Gen.(int_range 1 6) (int_bound 12_000)))
    (fun (seed, algo, cutoffs) ->
      let algo =
        match algo with
        | 0 -> Harness.Scenario.Song_pike
        | 1 -> Harness.Scenario.Fork_only
        | 2 -> Harness.Scenario.Chandy_misra
        | _ -> Harness.Scenario.Ordered
      in
      let s =
        {
          Harness.Scenario.default with
          topology = Cgraph.Topology.Grid (2, 3);
          seed = Int64.of_int seed;
          algo;
          workload = Harness.Scenario.contended_workload;
          horizon = 12_000;
        }
      in
      let fair = (Harness.Run.run s).fairness in
      let log = Monitor.Fairness.overtakes fair in
      List.for_all
        (fun cutoff ->
          Monitor.Fairness.max_consecutive_after fair cutoff
          = Fairness_reference.max_consecutive_after log cutoff)
        (0 :: cutoffs))

let suite =
  [
    Alcotest.test_case "exclusion: detects overlapping neighbors" `Quick exclusion_detects_overlap;
    Alcotest.test_case "phases: splits at the doorway event" `Quick phases_split;
    Alcotest.test_case "phases: real algorithm splits sum" `Quick phases_real_algorithm;
    Alcotest.test_case "exclusion: non-neighbors and crashed ignored" `Quick
      exclusion_ignores_non_neighbors_and_crashed;
    Alcotest.test_case "fairness: consecutive counting and reset" `Quick fairness_counts_consecutive;
    Alcotest.test_case "fairness: windowed maxima" `Quick fairness_windowed_series;
    Alcotest.test_case "fairness: crashed victims ignored" `Quick fairness_ignores_crashed_victims;
    Alcotest.test_case "response: latency and open sessions" `Quick response_latency;
    Alcotest.test_case "response: starvation threshold" `Quick response_starvation_threshold;
    Alcotest.test_case "response: crashed processes not starved" `Quick response_crashed_not_starved;
    Alcotest.test_case "response: bucketed series" `Quick response_series_buckets;
    Alcotest.test_case "accessors: equal the recorded lists" `Quick accessors_match_recorded;
    QCheck_alcotest.to_alcotest max_consecutive_after_matches_reference;
  ]
