(** One self-contained simulated universe.

    A [World.t] owns {e everything} a run mutates — virtual-time engine,
    seeded RNG tree, network and fault plan, failure detector, daemon
    instance, monitors and workload — and nothing else: no module under
    [lib/sim], [lib/net], [lib/core] or [lib/detector] keeps top-level
    mutable state, so two worlds never share a mutable value. That
    share-nothing guarantee is what lets {!Exec.Pool} run many worlds on
    concurrent domains while keeping every report bit-identical to a
    sequential execution of the same scenarios.

    {!run} is the pure [Scenario.t -> report] entry point; the
    create/advance/report triple exposes the same run incrementally for
    callers that want to interleave their own probes with virtual time. *)

type t

type report = {
  scenario : Scenario.t;
  graph : Cgraph.Graph.t;
  crashed : (int * Sim.Time.t) list;
      (** Realised crash schedule, ascending time. *)
  convergence : Sim.Time.t;
      (** Time after which the detector's output is settled: exact for
          scripted detectors, measured (last false suspicion + 1) for the
          heartbeat detector, 0 for Never/Perfect. *)
  detector_mistakes : int;
      (** False suspicions committed (heartbeat detector only; scripted
          windows are counted from the scenario). *)
  exclusion : Monitor.Exclusion.t;
  fairness : Monitor.Fairness.t;
  response : Monitor.Response.t;
  phases : Monitor.Phases.t;
      (** Doorway-vs-fork wait breakdown (Song-Pike daemons only; empty
          for the baselines, which emit no doorway events). *)
  link_stats : Net.Link_stats.t;  (** Dining-layer channels only. *)
  total_eats : int;
  eats_per_process : int array;
  hungry_transitions : int;
  invariant_error : string option;
      (** First executable-lemma failure, if any (expected [None]). *)
  max_footprint_bits : int option;  (** Song-Pike only: max over processes. *)
  max_message_bits : int option;    (** Song-Pike only. *)
  events_processed : int;
  horizon : Sim.Time.t;
  metrics : Obs.Metrics.t;
      (** The world's metrics registry: [net.*] traffic counters
          (dining + heartbeat overlays aggregated), [daemon.*] counters
          and wait histograms, [engine.*] / [detector.*] gauges. *)
}

val create :
  ?backend:Sim.Engine.backend ->
  ?trace:Sim.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?shards:int ->
  Scenario.t ->
  t
(** Build a fresh world: engine, network, detector, daemon, monitors and
    workload, with the crash plan scheduled and the invariant watcher
    armed. Virtual time has not advanced yet. [backend] selects the
    engine's event-queue implementation (default: the timing wheel; both
    backends are bit-identical). [trace] becomes the engine's recorder
    (capture it with {!Obs.Recorder.collecting} for JSONL export);
    [metrics] is the registry every component registers into (default: a
    fresh private one, available via the report). [shards > 0] runs the
    engine on staged stepping with that many shards (see
    {!Setup.build}); reports and traces are bit-identical for any
    value. *)

val advance : t -> until:Sim.Time.t -> unit
(** Process events up to and including virtual time [until]. Advancing in
    stages is equivalent to one advance to the last time. *)

val now : t -> Sim.Time.t
(** Current virtual time of this world's engine. *)

val report : ?horizon:Sim.Time.t -> t -> report
(** Assemble the report for whatever has executed so far, including a
    final executable-lemma check. Reporting leaves the world's state as
    it was — the final check's verdict is returned, not recorded — so a
    world can be reported, advanced further and reported again, and the
    last report equals {!run}'s. (It does refresh the registry's
    point-in-time gauges, and the monitors, [eats_per_process] and
    [metrics] it returns are the live world's, so read them before
    advancing again.) Normally called once [advance] reached the
    scenario horizon.

    [horizon] reports a prefix: the world must have been advanced to
    exactly [horizon], at most the scenario's horizon, and the report
    carries [horizon] and [scenario = {s with horizon}]. It reads the
    same as [run {s with horizon}] — same events, eats, monitors and
    oracle verdicts (the horizon-prefix property, DESIGN.md) — save the
    [engine.pending] gauge, which still counts this world's later
    events. Raises [Invalid_argument] on any other [horizon]. *)

val run :
  ?backend:Sim.Engine.backend ->
  ?trace:Sim.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?shards:int ->
  Scenario.t ->
  report
(** [create |> advance ~until:horizon |> report] — deterministic in the
    scenario: same scenario, same report, on any domain and with either
    queue backend. *)

val throughput : report -> float
(** Eats per 1000 ticks. *)

val starved : report -> older_than:int -> Dining.Types.pid list
(** Live processes still hungry at the horizon whose session is older
    than the given age — wait-freedom violations at that patience
    level. *)
