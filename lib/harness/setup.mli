(** Shared scenario wiring used by {!Run} and {!Run_stabilize}: builds
    engine, crash plan, detector and daemon instance from a scenario. *)

type detector_state =
  [ `Static of Sim.Time.t | `Oracle of Fd.Oracle.t | `Heartbeat of Fd.Heartbeat.t ]

type parts = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  rng : Sim.Rng.t;
  crashed : (int * Sim.Time.t) list;  (** realised, ascending time; already scheduled *)
  detector : Fd.Detector.t;
  detector_state : detector_state;
  instance : Dining.Instance.t;
  link_stats : Net.Link_stats.t;
  song_pike : Dining.Algorithm.t option;
}

val build :
  ?trace:Sim.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  Scenario.t ->
  parts
(** Builds everything and schedules the crash plan (victims are watched in
    [link_stats]). The engine has not run yet. [trace] becomes the
    engine's recorder, so structural event/message records flow into it
    under full tracing; [metrics] is threaded to the dining and heartbeat
    overlays' link statistics. The engine gets no pool: the monitors,
    workload and detectors share state across processes, so a world's
    events fire on the engine's pop loop (see {!Sim.Engine}). *)

val convergence : parts -> Sim.Time.t * int
(** Post-run detector convergence time and (for heartbeat) mistake count. *)
