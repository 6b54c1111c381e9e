(** Shard-safe synthetic ping workload.

    Every process periodically pings its whole neighborhood over a
    [shard_safe] {!Net.Network}; receivers fold the traffic into
    per-process checksums. Every handler touches only state owned by its
    event's owner pid, so the workload may run on a domain pool (see
    {!Sim.Engine.set_sharding}) — unlike the full dining worlds, whose
    monitors and workload share cross-process state and therefore run
    on the pop loop. Tests and the bench use it to check (and time) that
    shard-parallel runs compute exactly the pop loop's result. *)

type result = {
  events : int;  (** Engine events processed. *)
  sent : int;
  received : int;
  checksum : int;  (** Order-sensitive digest of all deliveries. *)
  worst_watermark : int;  (** Max per-edge in-flight watermark. *)
  edge_digest : int;
      (** Digest of every edge's final in-flight count and watermark,
          read from {!Net.Link_stats}. *)
}

val run :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  ?period:int ->
  ?seed:int64 ->
  topology:Cgraph.Topology.spec ->
  horizon:Sim.Time.t ->
  unit ->
  result
(** Deterministic in [(topology, horizon, period, seed)]. Without
    [pool] the engine runs the pop loop; with one, its ticks fire as
    parallel steps over [shards] shards, which changes neither the
    result nor (for [shards = 1], which runs the pop loop) anything
    else. Defaults: no pool, [shards = 1], [period = 7]. *)

val run_on :
  ?period:int -> ?seed:int64 -> Sim.Engine.t -> Cgraph.Graph.t -> horizon:Sim.Time.t -> result
(** [run_on engine graph ~horizon] runs the workload on a fresh engine
    the caller built — with its own recorder, say, or a pool — over
    [graph]; {!run} is [run_on] on a new engine. A sharded [engine] must
    be partitioned over [Cgraph.Graph.n graph] pids. *)
