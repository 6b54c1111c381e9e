type workload = Large_sparse | Contended_churn | Fuzz_hostile

let all = [ Large_sparse; Contended_churn; Fuzz_hostile ]

(* large_sparse stays runnable by hand but is not in BENCHMARK.json: on a
   shared 2-vCPU host its 86 MB world slows by up to 2.5x in the host's
   slow phases, more than the other two, and its spread over ten seeds
   broke the 0.25 bound in two of five sets. *)
let benchmarked = [ Contended_churn; Fuzz_hostile ]

let name = function
  | Large_sparse -> "large_sparse"
  | Contended_churn -> "contended_churn"
  | Fuzz_hostile -> "fuzz_hostile"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Mix the user-visible seed so that nearby seeds give unrelated
   streams; the result is what every generator below is keyed on. *)
let mix seed = Sim.Rng.bits64 (Sim.Rng.create (Int64.of_int seed))

let scenario w ~seed : Harness.Scenario.t =
  let seed = mix seed in
  let base = { Harness.Scenario.default with seed; delay = Net.Delay.Uniform (1, 8) } in
  match w with
  | Large_sparse ->
      (* About n events in flight, n-sized tables and hub-degree skew;
         few sessions per process, so monitors and detector stay light.
         The horizon gives the wait-freedom oracle a patience (horizon/4)
         above a hub's legitimate service time. *)
      {
        base with
        name = "large_sparse";
        topology = Cgraph.Topology.Scale_free (10_000, 2, seed);
        detector = Harness.Scenario.Never;
        workload = Harness.Scenario.default_workload;
        crashes = Harness.Scenario.No_crashes;
        horizon = 3_000;
        check_every = Some 1_000;
      }
  | Contended_churn ->
      (* Hundreds of thousands of sessions through the daemon handlers,
         the monitors, heartbeat traffic and crash handling, on a world
         too small for queue depth, report or set-up to matter. *)
      {
        base with
        name = "contended_churn";
        topology = Cgraph.Topology.Grid (8, 8);
        detector = Harness.Scenario.Heartbeat { period = 20; initial_timeout = 30; bump = 25 };
        workload = Harness.Scenario.contended_workload;
        crashes = Harness.Scenario.Random_crashes { count = 3; from_t = 10_000; to_t = 50_000 };
        horizon = 100_000;
        check_every = Some 997;
      }
  | Fuzz_hostile -> invalid_arg "Inputs.scenario: fuzz_hostile runs a campaign"

let fuzz_cases = 1_200
let fuzz_profile = Fuzz.Gen.Hostile
let campaign_seed ~seed = mix seed

let end_to_end = [ "setup_s"; "wall_s"; "events_per_s"; "cases_per_s"; "peak_rss_mb" ]

let per_layer =
  [
    "world.create_s"; "world.advance_s"; "world.report_s"; "world.alloc_words.create";
    "world.alloc_words_per_event"; "world.alloc_words.report"; "world.live_bytes_per_proc";
    "gc.minor_collections"; "gc.major_collections"; "cgraph.build_s"; "setup.build_s";
    "monitor.attach_s"; "monitor.advance_share"; "monitor.live_bytes_per_proc"; "engine.events";
    "engine.pending_end"; "engine.storm_ns_per_event"; "net.ping_ns_per_event"; "net.sent";
    "net.delivered"; "net.dropped"; "net.heartbeat_share"; "detector.mistakes";
    "daemon.events_per_eat"; "daemon.msgs_per_eat"; "net.max_edge_watermark";
    "daemon.max_overtakes_after_settle"; "fuzz.gen_s"; "fuzz.sim_s"; "fuzz.oracle_s";
    "fuzz.case_p50_ms"; "fuzz.shrink_attempts"; "fuzz.resim_share"; "pool.cpu_per_wall";
    "trace.overhead_share";
  ]
