(* The repo benchmark. One workload per process:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> [--domains <d>]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   makes the traced run that gives the per-layer metrics and writes its
   spans to _perfbench/. Every metric is printed as a "metric" line with
   its unit; the last line is one JSON object with the group the run
   measures. Any failed output check or digest mismatch makes the run
   exit 1. *)

open Perfbench
module World = Harness.World

let metrics : (string * (float * string)) list ref = ref []

let metric name unit v =
  metrics := (name, (v, unit)) :: !metrics;
  Printf.printf "metric %-34s %.6g %s\n%!" name v unit

let failures = ref []

let check ok msg =
  if not ok then begin
    failures := msg :: !failures;
    Printf.printf "check FAILED: %s\n%!" msg
  end

let samples name xs =
  Printf.printf "samples %s n=%d: %s\n" name (List.length xs)
    (String.concat " " (List.map (Printf.sprintf "%.4g") xs))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Call [f] at least [min] and at most [max] times, and no more once
   another call would likely end after [stop_ns]. Also returns the
   process's peak RSS right after the first call: a user's run does one
   workload, and later repetitions only add the heap growth that
   repeating in one process brings (83-133 MB on contended_churn,
   depending on how many repetitions fit). *)
let repeat ~stop_ns ?(min = 4) ?(max = 60) f =
  let t0 = Clock.now_ns () in
  let rec go k acc =
    let now = Clock.now_ns () in
    let per = if k = 0 then 0 else (now - t0) / k in
    if k >= max || (k >= min && now + per > stop_ns) then List.rev acc else go (k + 1) (f () :: acc)
  in
  let first = f () in
  let peak_mb = Clock.peak_rss_mb () in
  (peak_mb, first :: go 1 [])

(* The first repetition warms the heap, the pool and the caches; it is
   checked like the others but left out of the timed medians. *)
let timed = function _ :: (_ :: _ as rest) -> rest | l -> l

(* Set-up is sampled for [budget_s] (at least once) before every
   repetition, so that its median covers the same stretch of the run as
   the repetitions do, not only its first second. *)
let sample_setup acc ~budget_s sample =
  let t0 = Clock.now_ns () in
  let rec go first =
    if first || Clock.since t0 < budget_s then begin
      acc := sample () :: !acc;
      go false
    end
  in
  go true

let check_digests what texts =
  match texts with
  | [] -> ()
  | first :: rest ->
      Printf.printf "digest %s %s %s\n%!" what (Digest.to_hex (Digest.string first)) first;
      List.iteri
        (fun i t -> check (t = first) (Printf.sprintf "%s digest of repetition %d differs from the first" what (i + 1)))
        rest

(* ------------------------------------------------------------------ *)
(* World workloads.                                                    *)
(* ------------------------------------------------------------------ *)

let report_counts (c : Probes.counts) =
  metric "engine.events" "count" (fi c.events);
  metric "engine.pending_end" "count" (fi c.pending_end);
  metric "net.sent" "count" (fi c.net_sent);
  metric "net.delivered" "count" (fi c.net_delivered);
  metric "net.dropped" "count" (fi c.net_dropped);
  metric "net.heartbeat_share" "share" (1. -. ratio (fi c.dining_sent) (fi c.net_sent));
  metric "detector.mistakes" "count" (fi c.mistakes);
  metric "daemon.events_per_eat" "events/eat" (ratio (fi c.events) (fi c.eats));
  metric "daemon.msgs_per_eat" "msgs/eat" (ratio (fi c.dining_sent) (fi c.eats));
  metric "net.max_edge_watermark" "msgs" (fi c.watermark);
  metric "daemon.max_overtakes_after_settle" "count" (fi c.overtakes)

type rep = { advance_s : float; wall_s : float; verdict_s : float; events : int }

(* Each repetition keeps only its numbers and digest, so the process's
   peak memory is one world's, whatever the repetition count. *)
let world_e2e ~stop_ns (s : Harness.Scenario.t) =
  (* Set-up: World.create after a full collection, in batches of at
     least 5 ms so that a sub-millisecond create is not timed one cold
     call at a time. *)
  let create () = ignore (Sys.opaque_identity (World.create s)) in
  let batch = max 1 (int_of_float (5e-3 /. snd (Clock.time create))) in
  let setup_sample () =
    Gc.full_major ();
    snd (Clock.time (fun () -> for _ = 1 to batch do create () done)) /. fi batch
  in
  let setup = ref [] in
  let ops = ref None in
  let peak_mb, reps =
    repeat ~stop_ns (fun () ->
        sample_setup setup ~budget_s:0.3 setup_sample;
        let run = Probes.run_world ~spans:(Span.create ~enabled:false) s in
        let checks, oracle_s = Clock.time (fun () -> Probes.world_checks run.report) in
        if !ops = None then begin
          List.iter (check false) checks;
          ops := Some (Probes.ops run.report)
        end;
        ( {
            advance_s = run.advance_s;
            wall_s = run.wall_s;
            verdict_s = run.wall_s +. oracle_s;
            events = run.report.events_processed;
          },
          Probes.world_digest run.report ))
  in
  check_digests "world" (List.map snd reps);
  let reps = timed (List.map fst reps) in
  Printf.printf "timed repetitions %d after one warm-up, set-up samples %d\n" (List.length reps)
    (List.length !setup);
  let med f = Stat.median (List.map f reps) in
  samples "wall_s" (List.map (fun r -> r.wall_s) reps);
  metric "setup_s" "s" (Stat.median !setup);
  metric "wall_s" "s" (med (fun r -> r.wall_s));
  metric "events_per_s" "events/s" (med (fun r -> fi r.events /. r.advance_s));
  metric "cases_per_s" "cases/s" (med (fun r -> 1. /. r.verdict_s));
  metric "peak_rss_mb" "MB" peak_mb;
  Option.get !ops

let world_traced ~trace_path w ~seed =
  let spans = Span.create ~enabled:true in
  let s = Span.with_ spans "gen" (fun _ -> Inputs.scenario w ~seed) in
  metric "cgraph.build_s" "s"
    (Probes.median_time ~budget_s:1. (fun () ->
         Span.with_ spans "cgraph.build" (fun _ -> Cgraph.Topology.build s.topology)));
  metric "setup.build_s" "s"
    (Probes.median_time ~budget_s:1.5 (fun () ->
         Span.with_ spans "setup.build" (fun _ -> Harness.Setup.build s)));
  (* Monitors attach to fresh parts, built outside the timed call. *)
  metric "monitor.attach_s" "s"
    (Probes.median_sample ~budget_s:1.5 (fun () ->
         let trace = Sim.Trace.create () in
         let p = Harness.Setup.build ~trace s in
         snd
           (Clock.time (fun () ->
                Span.with_ spans "monitor.attach" (fun _ -> Probes.attach_monitors p trace)))));
  (* Untraced and traced runs of the same world: their difference is the
     tracing overhead, and their digests must agree. *)
  let plain = Probes.run_world ~spans:(Span.create ~enabled:false) s in
  let run = Probes.run_world ~spans ~live:true s in
  Span.with_ spans "oracle" (fun _ -> List.iter (check false) (Probes.world_checks run.report));
  check_digests "world" [ Probes.world_digest plain.report; Probes.world_digest run.report ];
  let bare = Probes.bare_world ~spans ~live:true s in
  check (bare.bare_events = run.report.events_processed)
    (Printf.sprintf "bare world fired %d events, full world %d" bare.bare_events
       run.report.events_processed);
  let depth = int_of_float (Stat.median (List.map fi bare.depth)) in
  Printf.printf "engine depth (median pending over %d windows) %d\n" Probes.windows depth;
  let _, storm = Probes.engine_storm ~spans ~depth ~events:(max 1_000_000 (50 * depth)) in
  let ping, ping_ns = Probes.net_ping ~spans ~events:1_000_000 s.topology in
  Printf.printf "net.ping events=%d checksum=%x watermark=%d\n" ping.events ping.checksum ping.worst_watermark;
  let all = Span.spans spans in
  let c = Probes.counts_of run.report in
  let n = Cgraph.Graph.n run.report.graph in
  metric "world.create_s" "s" run.create_s;
  metric "world.advance_s" "s" run.advance_s;
  metric "world.report_s" "s" run.report_s;
  metric "world.alloc_words.create" "words" run.alloc_create;
  metric "world.alloc_words_per_event" "words/event" (run.alloc_advance /. fi c.events);
  metric "world.alloc_words.report" "words" run.alloc_report;
  metric "world.live_bytes_per_proc" "B/proc" (fi (run.live_words * (Sys.word_size / 8)) /. fi n);
  metric "gc.minor_collections" "count" (fi run.minor_gcs);
  metric "gc.major_collections" "count" (fi run.major_gcs);
  metric "monitor.advance_share" "share" (1. -. (bare.bare_advance_s /. plain.advance_s));
  metric "monitor.live_bytes_per_proc" "B/proc"
    (fi ((run.live_words - bare.bare_live_words) * (Sys.word_size / 8)) /. fi n);
  report_counts c;
  metric "engine.storm_ns_per_event" "ns/event" storm;
  metric "net.ping_ns_per_event" "ns/event" ping_ns;
  metric "fuzz.gen_s" "s" (Span.total_s all "gen");
  metric "fuzz.sim_s" "s" (Span.total_s all "workload");
  metric "fuzz.oracle_s" "s" (Span.total_s all "oracle");
  metric "fuzz.case_p50_ms" "ms"
    (1e3 *. (Span.total_s all "gen" +. Span.total_s all "workload" +. Span.total_s all "oracle"));
  metric "fuzz.shrink_attempts" "count" 0.;
  metric "fuzz.resim_share" "share" 0.;
  metric "pool.cpu_per_wall" "cpu_s/s" (plain.cpu_s /. plain.wall_s);
  let workload = Span.total_s all "workload" in
  metric "trace.overhead_share" "share" ((workload /. plain.wall_s) -. 1.);
  (* The workload span is create + advance + report: its own self time is
     only the timer calls between them. *)
  let gap = Span.self_s all "workload" in
  Printf.printf "trace self time: workload %.6f s, world.advance %.6f s (of %.6f s)\n" gap
    (Span.self_s all "world.advance") workload;
  check (gap <= 1e-3 +. (0.01 *. workload))
    (Printf.sprintf "workload span self time %.6f s is not covered by create/advance/report" gap);
  Span.write_jsonl trace_path all;
  Printf.printf "trace %d spans -> %s\n" (List.length all) trace_path;
  Probes.ops run.report

(* ------------------------------------------------------------------ *)
(* fuzz_hostile.                                                       *)
(* ------------------------------------------------------------------ *)

let campaign ~domains ~seed =
  Fuzz.Campaign.run ~domains ~profile:Inputs.fuzz_profile ~shrink:true ~seed ~cases:Inputs.fuzz_cases ()

(* A case fails when its shrunk reproducer does not replay; a raising
   campaign fails every case. *)
let campaign_ops (c : Fuzz.Campaign.report option) =
  let bad = match c with None -> None | Some c -> Some (Probes.unreplayable c) in
  let ops =
    Stat.count
      (fun case -> match bad with None -> true | Some l -> List.mem case l)
      (List.init Inputs.fuzz_cases Fun.id)
  in
  check (ops.failed = 0) (Printf.sprintf "%d of %d cases failed" ops.failed ops.attempted);
  ops

let timed_campaign ~domains ~seed =
  let cpu0 = Clock.cpu_s () in
  match Clock.time (fun () -> campaign ~domains ~seed) with
  | c, dt -> Some (c, dt, Clock.cpu_s () -. cpu0)
  | exception e ->
      check false ("campaign raised " ^ Printexc.to_string e);
      None

let fuzz_e2e ~stop_ns ~domains ~seed =
  (* Set-up: the pool start-up and scenario generation Campaign.run does
     before the first case runs, timed through the same calls. *)
  let setup () =
    Exec.Pool.with_pool ~domains (fun _ -> ());
    for case = 0 to Inputs.fuzz_cases - 1 do
      ignore
        (Sys.opaque_identity (Fuzz.Gen.scenario ~profile:Inputs.fuzz_profile ~campaign_seed:seed ~case))
    done
  in
  let setup_samples = ref [] in
  (* Repetitions keep their digest and numbers only, so peak memory does
     not grow with their count; the first report is kept for the replay
     check. *)
  let first = ref None in
  let peak_mb, reps =
    repeat ~stop_ns (fun () ->
        sample_setup setup_samples ~budget_s:0.3 (fun () -> snd (Clock.time setup));
        Option.map
          (fun ((c : Fuzz.Campaign.report), dt, _) ->
            if !first = None then first := Some c;
            (Probes.campaign_digest_text (Probes.campaign_digest_of_report c), dt, c.total_events))
          (timed_campaign ~domains ~seed))
  in
  let reps = List.filter_map Fun.id reps in
  check_digests "campaign" (List.map (fun (d, _, _) -> d) reps);
  let reps = timed reps in
  Printf.printf "timed repetitions %d after one warm-up (campaign of %d cases on %d domains), set-up samples %d\n"
    (List.length reps) Inputs.fuzz_cases domains (List.length !setup_samples);
  metric "setup_s" "s" (Stat.median !setup_samples);
  if reps <> [] then begin
    let med f = Stat.median (List.map f reps) in
    samples "wall_s" (List.map (fun (_, dt, _) -> dt) reps);
    metric "wall_s" "s" (med (fun (_, dt, _) -> dt));
    metric "events_per_s" "events/s" (med (fun (_, dt, events) -> fi events /. dt));
    metric "cases_per_s" "cases/s" (med (fun (_, dt, _) -> fi Inputs.fuzz_cases /. dt))
  end;
  metric "peak_rss_mb" "MB" peak_mb;
  campaign_ops !first

let fuzz_traced ~domains ~seed ~trace_path =
  let spans = Span.create ~enabled:true in
  let on d = Span.with_ spans (Printf.sprintf "campaign.domains-%d" d) (fun _ -> timed_campaign ~domains:d ~seed) in
  let par = on domains in
  let seq = on 1 in
  let d = Probes.fuzz_decompose ~spans ~seed ~cases:Inputs.fuzz_cases in
  let texts =
    List.filter_map
      (Option.map (fun (c, _, _) -> Probes.campaign_digest_text (Probes.campaign_digest_of_report c)))
      [ par; seq ]
  in
  (* nproc domains, 1 domain, and the sequential decomposition. *)
  check_digests "campaign" (texts @ [ Probes.campaign_digest_text d.digest ]);
  check (d.bare_mismatch = [])
    (Printf.sprintf "bare worlds fired different event counts on cases %s"
       (String.concat "," (List.map string_of_int d.bare_mismatch)));
  (* Memory per process on the first cases' worlds. *)
  let live_cases = min 20 Inputs.fuzz_cases in
  let full_w = ref 0 and bare_w = ref 0 and procs = ref 0 in
  for case = 0 to live_cases - 1 do
    let s = Fuzz.Gen.scenario ~profile:Inputs.fuzz_profile ~campaign_seed:seed ~case in
    let r = Probes.run_world ~spans:(Span.create ~enabled:false) ~live:true s in
    let b = Probes.bare_world ~spans:(Span.create ~enabled:false) ~live:true s in
    full_w := !full_w + r.live_words;
    bare_w := !bare_w + b.bare_live_words;
    procs := !procs + Cgraph.Graph.n r.report.graph
  done;
  let depth = int_of_float (Stat.median (List.map fi d.depth)) in
  Printf.printf "engine depth (median pending at mid-horizon over %d cases) %d\n" Inputs.fuzz_cases depth;
  let _, storm = Probes.engine_storm ~spans ~depth ~events:1_000_000 in
  let topo = (Fuzz.Gen.scenario ~profile:Inputs.fuzz_profile ~campaign_seed:seed ~case:0).topology in
  let _, ping_ns = Probes.net_ping ~spans ~events:1_000_000 topo in
  let all = Span.spans spans in
  let c = d.counts in
  let bytes w = fi (w * (Sys.word_size / 8)) in
  metric "world.create_s" "s" (Span.total_s all "world.create");
  metric "world.advance_s" "s" (Span.total_s all "world.advance");
  metric "world.report_s" "s" (Span.total_s all "world.report");
  metric "world.alloc_words.create" "words" d.alloc_create;
  metric "world.alloc_words_per_event" "words/event" (d.alloc_advance /. fi c.events);
  metric "world.alloc_words.report" "words" d.alloc_report;
  metric "world.live_bytes_per_proc" "B/proc" (bytes !full_w /. fi !procs);
  metric "gc.minor_collections" "count" (fi d.minor_gcs);
  metric "gc.major_collections" "count" (fi d.major_gcs);
  metric "cgraph.build_s" "s" (Span.total_s all "cgraph.build");
  metric "setup.build_s" "s" (Span.total_s all "setup.build");
  metric "monitor.attach_s" "s" (Span.total_s all "monitor.attach");
  metric "monitor.advance_share" "share" (1. -. (d.bare_advance_s /. d.full_advance_s));
  metric "monitor.live_bytes_per_proc" "B/proc" (bytes (!full_w - !bare_w) /. fi !procs);
  report_counts c;
  metric "engine.storm_ns_per_event" "ns/event" storm;
  metric "net.ping_ns_per_event" "ns/event" ping_ns;
  metric "fuzz.gen_s" "s" (Span.total_s all "gen");
  metric "fuzz.sim_s" "s" (Span.total_s all "sim");
  metric "fuzz.oracle_s" "s" (Span.total_s all "oracle");
  metric "fuzz.shrink_s" "s" (Span.total_s all "shrink");
  metric "fuzz.case_p50_ms" "ms" (Stat.median d.case_ms);
  (* The highest percentile with at least ten cases beyond it. *)
  (match Stat.tail d.case_ms with
  | Some (p, v) -> metric (Printf.sprintf "fuzz.case_p%g_ms" p) "ms" v
  | None -> ());
  Printf.printf "fuzz case samples %d\n" (List.length d.case_ms);
  metric "fuzz.shrink_attempts" "count" (fi d.digest.shrink_attempts);
  metric "fuzz.resim_share" "share" (fi d.resim_events /. fi (d.resim_events + d.digest.events));
  (match par with
  | Some (_, wall, cpu) -> metric "pool.cpu_per_wall" "cpu_s/s" (cpu /. wall)
  | None -> ());
  (match seq with
  | Some (_, wall, _) -> metric "trace.overhead_share" "share" ((Span.total_s all "case" /. wall) -. 1.)
  | None -> ());
  Span.write_jsonl trace_path all;
  Printf.printf "trace %d spans -> %s\n" (List.length all) trace_path;
  campaign_ops (Option.map (fun (c, _, _) -> c) par)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <large_sparse|contended_churn|fuzz_hostile> --seed <int> \
     --seconds <int> --trace <0|1> [--domains <int>]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = match Inputs.of_name (get "--workload") with Some w -> w | None -> usage () in
  let seed = int "--seed" and seconds = int "--seconds" and trace = int "--trace" in
  let domains =
    match List.assoc_opt "--domains" kv with
    | None -> Exec.Pool.default_domains ()
    | Some d -> ( match int_of_string_opt d with Some d when d >= 1 -> d | _ -> usage ())
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let stop_ns = Clock.now_ns () + (seconds * 1_000_000_000) in
  let wname = Inputs.name workload in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d domains=%d nproc=%d\n%!" wname seed
    seconds trace domains (Domain.recommended_domain_count ());
  let trace_path = Printf.sprintf "_perfbench/trace-%s-seed%d.jsonl" wname seed in
  let ops =
    match (workload, trace) with
    | Inputs.Fuzz_hostile, 0 -> fuzz_e2e ~stop_ns ~domains ~seed:(Inputs.campaign_seed ~seed)
    | Inputs.Fuzz_hostile, _ -> fuzz_traced ~domains ~seed:(Inputs.campaign_seed ~seed) ~trace_path
    | w, 0 -> world_e2e ~stop_ns (Inputs.scenario w ~seed)
    | w, _ -> world_traced ~trace_path w ~seed
  in
  metric "ops" "count" (fi ops.attempted);
  metric "ops_failed" "count" (fi ops.failed);
  metric "ops_failure_share" "share" (Stat.failure_share ops);
  let wanted = if trace = 0 then Inputs.end_to_end else Inputs.per_layer in
  let json =
    List.map
      (fun name ->
        match List.assoc_opt name !metrics with
        | Some (v, unit) when Float.is_finite v -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
        | _ ->
            check false ("metric not measured: " ^ name);
            Printf.sprintf "%S: {\"value\": 0, \"unit\": \"missing\"}" name)
      wanted
  in
  let correct = !failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    ops.Stat.attempted ops.failed (String.concat ", " json);
  exit (if correct then 0 else 1)
