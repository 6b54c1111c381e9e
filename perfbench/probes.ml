(* Every measurement the benchmark takes, by layer. Layers are timed from
   outside, around calls into their public functions; nothing here
   changes what the program computes. *)

module Scenario = Harness.Scenario
module World = Harness.World

let words_of_bytes b = b /. float_of_int (Sys.word_size / 8)
let live_words () = (Gc.full_major (); (Gc.stat ()).Gc.live_words)

(* ------------------------------------------------------------------ *)
(* Output checks and the deterministic digest.                         *)
(* ------------------------------------------------------------------ *)

let counter (r : World.report) name =
  match Obs.Metrics.find r.metrics name with
  | Some (Obs.Metrics.Count c) | Some (Obs.Metrics.Level c) -> c
  | _ -> 0

(* The settle cutoff of Fuzz.Property's eventual oracles: detector
   convergence plus a horizon/16 grace window, or the last third of the
   run when the detector never settles. *)
let settle_cutoff (r : World.report) =
  if Sim.Time.is_finite r.convergence && r.convergence < r.horizon then
    r.convergence + (r.horizon / 16)
  else 2 * r.horizon / 3

let max_overtakes_after_settle (r : World.report) =
  Monitor.Fairness.max_consecutive_after r.fairness (settle_cutoff r)

let patience (r : World.report) = max 1 (r.horizon / 4)

let ops (r : World.report) =
  {
    Stat.attempted = r.hungry_transitions;
    failed = List.length (Monitor.Response.starved r.response ~older_than:(patience r));
  }

(* Events, eats and message counts per overlay: the dining layer's own
   channel statistics, and the registry's all-overlay totals (the
   difference is heartbeat traffic). *)
let world_digest (r : World.report) =
  let ls = r.link_stats in
  let per_pid = Array.fold_left (fun h e -> Hashtbl.hash (h, e)) 0 r.eats_per_process in
  let kinds =
    String.concat ","
      (List.map (fun (k, w) -> Printf.sprintf "%s:%d" k w) (Net.Link_stats.max_edge_watermark_by_kind ls))
  in
  Printf.sprintf
    "events=%d eats=%d eats_by_pid=%x hungry=%d dining.sent=%d dining.delivered=%d \
     dining.dropped=%d net.sent=%d net.delivered=%d net.dropped=%d watermarks=%s"
    r.events_processed r.total_eats per_pid r.hungry_transitions (Net.Link_stats.total_sent ls)
    (Net.Link_stats.total_delivered ls) (Net.Link_stats.total_dropped ls) (counter r "net.sent")
    (counter r "net.delivered") (counter r "net.dropped") kinds

(* Every run-level check a world must pass; the empty list means the
   output is correct. *)
let world_checks (r : World.report) =
  let s = r.scenario in
  let oracles =
    List.map
      (fun (name, msg) -> Printf.sprintf "oracle %s: %s" name msg)
      (Fuzz.Property.failures (Fuzz.Property.applicable s) r)
  in
  let w = Net.Link_stats.max_edge_watermark r.link_stats in
  let ov = max_overtakes_after_settle r in
  oracles
  @ (match r.invariant_error with None -> [] | Some m -> [ "invariant_error: " ^ m ])
  @ (if w <= 4 then [] else [ Printf.sprintf "edge watermark %d > 4" w ])
  @
  if ov <= s.acks_per_session + 1 then []
  else [ Printf.sprintf "%d overtakes after settle > %d" ov (s.acks_per_session + 1) ]

(* The exact counts a report carries, summed over worlds (maxima for
   the two paper bounds). *)
type counts = {
  events : int;
  pending_end : int;
  eats : int;
  net_sent : int;  (** every overlay *)
  net_delivered : int;
  net_dropped : int;
  dining_sent : int;
  mistakes : int;
  watermark : int;
  overtakes : int;
}

let zero_counts =
  {
    events = 0;
    pending_end = 0;
    eats = 0;
    net_sent = 0;
    net_delivered = 0;
    net_dropped = 0;
    dining_sent = 0;
    mistakes = 0;
    watermark = 0;
    overtakes = 0;
  }

(* Setup registers the heartbeat overlay's traffic into the world's
   registry, and the dining overlay's only for Song-Pike; the baselines'
   dining traffic is in their link statistics alone. *)
let counts_of (r : World.report) =
  let ls = r.link_stats in
  let dining_in_registry = r.scenario.algo = Scenario.Song_pike in
  let all name dining = counter r name + if dining_in_registry then 0 else dining in
  {
    events = r.events_processed;
    pending_end = counter r "engine.pending";
    eats = r.total_eats;
    net_sent = all "net.sent" (Net.Link_stats.total_sent ls);
    net_delivered = all "net.delivered" (Net.Link_stats.total_delivered ls);
    net_dropped = all "net.dropped" (Net.Link_stats.total_dropped ls);
    dining_sent = Net.Link_stats.total_sent ls;
    mistakes = r.detector_mistakes;
    watermark = Net.Link_stats.max_edge_watermark ls;
    overtakes = max_overtakes_after_settle r;
  }

let add_counts a b =
  {
    events = a.events + b.events;
    pending_end = a.pending_end + b.pending_end;
    eats = a.eats + b.eats;
    net_sent = a.net_sent + b.net_sent;
    net_delivered = a.net_delivered + b.net_delivered;
    net_dropped = a.net_dropped + b.net_dropped;
    dining_sent = a.dining_sent + b.dining_sent;
    mistakes = a.mistakes + b.mistakes;
    watermark = max a.watermark b.watermark;
    overtakes = max a.overtakes b.overtakes;
  }

(* ------------------------------------------------------------------ *)
(* One world, create / advance / report.                               *)
(* ------------------------------------------------------------------ *)

type world_run = {
  report : World.report;
  create_s : float;
  advance_s : float;
  report_s : float;
  wall_s : float;  (** create + advance + report *)
  cpu_s : float;
  alloc_create : float;  (** words; traced runs only *)
  alloc_advance : float;
  alloc_report : float;
  minor_gcs : int;
  major_gcs : int;
  live_words : int;  (** held by the reported world; with [~live] only *)
}

let windows = 16

(* The untraced run advances in one call; the traced one advances over
   [windows] equal slices of virtual time, each its own span, so a phase
   that slows down over the run shows. Advancing in stages is equivalent
   to one advance (World.advance). With [live], the heap the world holds
   after its report is measured once the workload span has closed. *)
let run_world ~spans ?(live = false) (s : Scenario.t) =
  let traced = Span.enabled spans in
  (* Every run starts from a collected heap. *)
  let live0 = if live then live_words () else (Gc.full_major (); 0) in
  let g0 = Gc.quick_stat () in
  let alloc () = if traced then words_of_bytes (Gc.allocated_bytes ()) else 0. in
  let cpu0 = Clock.cpu_s () in
  let ws = Span.enter spans "workload" in
  let a0 = alloc () in
  let t0 = Clock.now_ns () in
  let w = Span.with_ spans ~parent:ws "world.create" (fun _ -> World.create s) in
  let t1 = Clock.now_ns () in
  let a1 = alloc () in
  Span.with_ spans ~parent:ws "world.advance" (fun adv ->
      if not traced then World.advance w ~until:s.horizon
      else
        for k = 1 to windows do
          Span.with_ spans ~parent:adv (Printf.sprintf "world.advance.window-%02d" k) (fun _ ->
              World.advance w ~until:(s.horizon * k / windows))
        done);
  let t2 = Clock.now_ns () in
  let a2 = alloc () in
  let report = Span.with_ spans ~parent:ws "world.report" (fun _ -> World.report w) in
  let t3 = Clock.now_ns () in
  let a3 = alloc () in
  Span.exit spans ws;
  let cpu_s = Clock.cpu_s () -. cpu0 in
  let g1 = Gc.quick_stat () in
  let live_words = if live then live_words () - live0 else 0 in
  ignore (Sys.opaque_identity w);
  let sec a b = float_of_int (b - a) *. 1e-9 in
  {
    report;
    create_s = sec t0 t1;
    advance_s = sec t1 t2;
    report_s = sec t2 t3;
    wall_s = sec t0 t3;
    cpu_s;
    alloc_create = a1 -. a0;
    alloc_advance = a2 -. a1;
    alloc_report = a3 -. a2;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    live_words;
  }

(* ------------------------------------------------------------------ *)
(* Layer probes.                                                       *)
(* ------------------------------------------------------------------ *)

(* Median of [sample ()] over at least 5 calls, more (up to 200) while
   the whole probe stays within [budget_s]. *)
let median_sample ~budget_s sample =
  let t0 = Clock.now_ns () in
  let rec go acc k =
    if k >= 200 || (k >= 5 && Clock.since t0 > budget_s) then Stat.median acc
    else go (sample () :: acc) (k + 1)
  in
  go [] 0

(* Median wall seconds of a call. *)
let median_time ~budget_s f =
  median_sample ~budget_s (fun () ->
      let x, dt = Clock.time f in
      ignore (Sys.opaque_identity x);
      dt)

let attach_monitors (p : Harness.Setup.parts) trace =
  let { Harness.Setup.engine; graph; faults; instance; _ } = p in
  let e = Monitor.Exclusion.attach engine graph faults instance in
  let f = Monitor.Fairness.attach engine graph faults instance in
  let r = Monitor.Response.attach engine faults instance in
  let ph = Monitor.Phases.attach engine trace instance in
  ignore (Sys.opaque_identity (e, f, r, ph))

(* The invariant watcher World.create arms, so that the bare world
   schedules exactly the events the full one does. *)
let watch_invariants ~engine ~horizon ~every (instance : Dining.Instance.t) =
  let failed = ref false in
  let rec check () =
    (if not !failed then
       try instance.check_invariants () with Dining.Types.Invariant_violation _ -> failed := true);
    if (not !failed) && Sim.Engine.now engine < horizon then
      ignore (Sim.Engine.schedule_after engine ~delay:every check)
  in
  ignore (Sim.Engine.schedule_after engine ~delay:every check)

type bare = { bare_advance_s : float; bare_events : int; depth : int list; bare_live_words : int }

(* The world without monitors: Setup.build plus Workload.attach (and the
   invariant watcher), advanced to the same horizon. Its queue depth is
   sampled at every window boundary; with [live] the heap it holds is
   measured like [run_world ~live]. *)
let bare_world ~spans ?(live = false) (s : Scenario.t) =
  let live0 = if live then live_words () else 0 in
  let p = Harness.Setup.build s in
  let { Harness.Setup.engine; faults; graph; rng; instance; _ } = p in
  let wl =
    Harness.Workload.attach ~engine ~faults ~n:(Cgraph.Graph.n graph)
      ~rng:(Sim.Rng.split_named rng "workload") ~workload:s.workload instance
  in
  Option.iter (fun every -> watch_invariants ~engine ~horizon:s.horizon ~every instance) s.check_every;
  let depth = ref [] in
  let (), bare_advance_s =
    Clock.time (fun () ->
        Span.with_ spans "world.bare_advance" (fun _ ->
            for k = 1 to windows do
              Sim.Engine.run engine ~until:(s.horizon * k / windows);
              depth := Sim.Engine.pending engine :: !depth
            done))
  in
  let bare_events = Sim.Engine.processed engine in
  let bare_live_words = if live then live_words () - live0 else 0 in
  ignore (Sys.opaque_identity (p, wl));
  { bare_advance_s; bare_events; depth = !depth; bare_live_words }

(* The engine driven alone, holding [depth] events in flight: each fired
   event schedules one successor until [events] have been scheduled. *)
let engine_storm ~spans ~depth ~events =
  let depth = max 1 depth in
  let events = max events depth in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 0x5707L in
  let scheduled = ref depth in
  let rec tick () =
    if !scheduled < events then begin
      incr scheduled;
      ignore (Sim.Engine.schedule_after engine ~delay:(1 + Sim.Rng.int rng 64) tick)
    end
  in
  for _ = 1 to depth do
    ignore (Sim.Engine.schedule_after engine ~delay:(1 + Sim.Rng.int rng 64) tick)
  done;
  let (), dt = Clock.time (fun () -> Span.with_ spans "engine.storm" (fun _ -> Sim.Engine.run_all engine)) in
  (Sim.Engine.processed engine, 1e9 *. dt /. float_of_int (Sim.Engine.processed engine))

(* Engine + network + link statistics on the workload's topology, about
   [events] events long. *)
let net_ping ~spans ~events topology =
  let g = Cgraph.Topology.build topology in
  (* A process beats every 7 ticks and each beat sends one message per
     neighbor: about (n + dir_count) / 7 events per tick. *)
  let per_tick = float_of_int (Cgraph.Graph.n g + Cgraph.Graph.dir_count g) /. 7. in
  let horizon = max 50 (int_of_float (float_of_int events /. per_tick)) in
  let r, dt =
    Clock.time (fun () ->
        Span.with_ spans "net.ping" (fun _ -> Harness.Shard_ping.run ~topology ~horizon ()))
  in
  (r, 1e9 *. dt /. float_of_int r.Harness.Shard_ping.events)

(* ------------------------------------------------------------------ *)
(* The fuzz campaign, decomposed.                                      *)
(* ------------------------------------------------------------------ *)

type campaign_digest = {
  failures : (int * string) list;  (** (case, property), ascending case *)
  shrink_attempts : int;
  events : int;  (** engine events of the cases' own runs *)
}

let campaign_digest_of_report (c : Fuzz.Campaign.report) =
  {
    failures = List.map (fun (f : Fuzz.Campaign.failure) -> (f.case, f.property)) c.failures;
    shrink_attempts =
      List.fold_left (fun acc (f : Fuzz.Campaign.failure) -> acc + f.shrink_attempts) 0 c.failures;
    events = c.total_events;
  }

let campaign_digest_text d =
  let by_prop = Hashtbl.create 8 in
  List.iter
    (fun (_, p) -> Hashtbl.replace by_prop p (1 + Option.value (Hashtbl.find_opt by_prop p) ~default:0))
    d.failures;
  let props =
    Hashtbl.fold (fun p c acc -> Printf.sprintf "%s:%d" p c :: acc) by_prop []
    |> List.sort compare |> String.concat ","
  in
  Printf.sprintf "failures=%d by_property=%s cases_hash=%x shrink_attempts=%d events=%d"
    (List.length d.failures) props (Hashtbl.hash d.failures) d.shrink_attempts d.events

(* The reproducer of each failing case (its first failure, the one
   Campaign.run shrinks) must survive a JSONL round trip through
   Fuzz.Repro and replay to [Reproduced]; returns the cases that do not. *)
let unreplayable (c : Fuzz.Campaign.report) =
  let replays (f : Fuzz.Campaign.failure) =
    match Fuzz.Repro.of_jsonl (Fuzz.Repro.to_jsonl ~property:f.property ~message:f.message f.shrunk) with
    | Error _ -> false
    | Ok (s, name) -> (
        match Fuzz.Property.find name with
        | None -> false
        | Some p -> (
            match Fuzz.Repro.replay p s with Fuzz.Repro.Reproduced _ -> true | Clean _ -> false))
  in
  let _, bad =
    List.fold_left
      (fun (prev, bad) (f : Fuzz.Campaign.failure) ->
        if f.case = prev || replays f then (f.case, bad) else (f.case, f.case :: bad))
      (-1, []) c.failures
  in
  List.rev bad

type fuzz_layers = {
  digest : campaign_digest;
  case_ms : float list;
  resim_events : int;
  full_advance_s : float;  (** summed over the cases' own runs *)
  bare_advance_s : float;
  bare_mismatch : int list;  (** cases whose bare world fired a different event count *)
  depth : int list;  (** queue depth at mid-horizon, per case *)
  alloc_create : float;
  alloc_advance : float;
  alloc_report : float;
  minor_gcs : int;  (** inside the case spans *)
  major_gcs : int;
  counts : counts;  (** over the cases' own runs *)
}

(* Campaign.run's per-case pipeline, Gen.scenario -> World.run ->
   Property.failures -> Shrink.minimize, sequentially and under spans;
   then the set-up layers and the bare world probed per case. Hostile
   profile: every oracle is checked. *)
let fuzz_decompose ~spans ~seed ~cases =
  let props = Fuzz.Property.all in
  let resim = ref 0 in
  let full_adv = ref 0. and bare_adv = ref 0. in
  let ac = ref 0. and aa = ref 0. and ar = ref 0. in
  let mism = ref [] and depth = ref [] in
  let failures = ref [] and attempts = ref 0 and counts = ref zero_counts in
  let minor = ref 0 and major = ref 0 and events = Array.make cases 0 in
  let alloc () = words_of_bytes (Gc.allocated_bytes ()) in
  for case = 0 to cases - 1 do
    let g0 = Gc.quick_stat () in
    let cs = Span.enter spans "case" in
    let s =
      Span.with_ spans ~parent:cs "gen" (fun _ ->
          Fuzz.Gen.scenario ~profile:Inputs.fuzz_profile ~campaign_seed:seed ~case)
    in
    let r =
      Span.with_ spans ~parent:cs "sim" (fun sim ->
          let a0 = alloc () in
          let w = Span.with_ spans ~parent:sim "world.create" (fun _ -> World.create s) in
          let a1 = alloc () in
          let (), dt =
            Clock.time (fun () ->
                Span.with_ spans ~parent:sim "world.advance" (fun _ -> World.advance w ~until:s.horizon))
          in
          full_adv := !full_adv +. dt;
          let a2 = alloc () in
          let r = Span.with_ spans ~parent:sim "world.report" (fun _ -> World.report w) in
          let a3 = alloc () in
          ac := !ac +. (a1 -. a0);
          aa := !aa +. (a2 -. a1);
          ar := !ar +. (a3 -. a2);
          r)
    in
    let fails = Span.with_ spans ~parent:cs "oracle" (fun _ -> Fuzz.Property.failures props r) in
    (match fails with
    | [] -> ()
    | (name, _) :: _ ->
        let p = List.find (fun (p : Fuzz.Property.t) -> p.name = name) props in
        Span.with_ spans ~parent:cs "shrink" (fun sh ->
            let rerun s' =
              let r' = Harness.Run.run s' in
              resim := !resim + r'.events_processed;
              p.check r'
            in
            let still_failing s' =
              Span.with_ spans ~parent:sh "shrink.attempt" (fun _ -> rerun s' <> None)
            in
            let m = Fuzz.Shrink.minimize ~still_failing s in
            (* Campaign.run re-runs the reproducer once for its message. *)
            Span.with_ spans ~parent:sh "shrink.final" (fun _ -> ignore (rerun m.scenario));
            attempts := !attempts + m.attempts));
    List.iter (fun (name, _) -> failures := (case, name) :: !failures) fails;
    Span.exit spans cs;
    let g1 = Gc.quick_stat () in
    minor := !minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
    major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
    counts := add_counts !counts (counts_of r);
    events.(case) <- r.events_processed
  done;
  (* Layer probes, in a pass of their own so that the case spans time
     exactly what Campaign.run does. *)
  for case = 0 to cases - 1 do
    let s = Fuzz.Gen.scenario ~profile:Inputs.fuzz_profile ~campaign_seed:seed ~case in
    ignore (Span.with_ spans "cgraph.build" (fun _ -> Cgraph.Topology.build s.topology));
    ignore (Span.with_ spans "setup.build" (fun _ -> Harness.Setup.build s));
    let trace = Sim.Trace.create () in
    let parts = Harness.Setup.build ~trace s in
    Span.with_ spans "monitor.attach" (fun _ -> attach_monitors parts trace);
    let b = bare_world ~spans s in
    bare_adv := !bare_adv +. b.bare_advance_s;
    if b.bare_events <> events.(case) then mism := case :: !mism;
    depth := List.nth b.depth (windows / 2) :: !depth
  done;
  let case_ms =
    List.filter_map
      (fun (sp : Span.span) ->
        if sp.name = "case" then Some (float_of_int (Span.duration_ns sp) *. 1e-6) else None)
      (Span.spans spans)
  in
  {
    digest =
      { failures = List.rev !failures; shrink_attempts = !attempts; events = Array.fold_left ( + ) 0 events };
    case_ms;
    resim_events = !resim;
    full_advance_s = !full_adv;
    bare_advance_s = !bare_adv;
    bare_mismatch = List.rev !mism;
    depth = !depth;
    alloc_create = !ac;
    alloc_advance = !aa;
    alloc_report = !ar;
    minor_gcs = !minor;
    major_gcs = !major;
    counts = !counts;
  }
