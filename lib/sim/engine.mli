(** Discrete-event simulation engine.

    The engine owns a virtual clock and a deterministic event queue.
    Events are closures scheduled at absolute virtual times; events with
    equal times fire in scheduling order. Handlers run instantaneously in
    virtual time and may schedule further events.

    {2 Fire loop and parallel steps}

    {!run} pops and fires one event at a time. {!set_sharding} attaches
    a domain pool and partitions the owner pids into shards; with more
    than one shard, and full tracing off, each tick instead fires as a
    parallel step: every event of the frontier tick is drained into a
    batch, each shard's slice of the batch fires on its own domain, and
    the events scheduled during the firing are merged back in a
    canonical order — sorted by the pop rank of the scheduling event,
    program order within a rank — which is the order the pop loop
    schedules them in. A parallel run therefore computes what the pop
    loop computes, for any shard count, provided every handler touches
    state of its own shard exclusively (cross-shard effects must go
    through [schedule] or a staged component such as
    [Net.Link_stats]). Under full tracing the pop loop runs, so traces
    are the pop loop's.

    {2 Storage}

    Events live in a slab of flat arrays: a packed int state word (id,
    owner, lifecycle flags) and the action closure, in a slot the
    engine recycles once the event fires or its husk leaves the queue.
    The queue ({!Wheel}) carries the slot as its int payload. In steady
    state scheduling and firing allocate nothing; the closure store is
    the one pointer write per event. *)

type t

type event_id
(** Handle for cancelling a scheduled event: an immediate value naming
    the event's slot and id, so returning one allocates nothing. It
    stays safe to hold after the event fires or is cancelled: once the
    slot is reused, cancelling through the old handle leaves the new
    event alone. *)

val no_event : event_id
(** A handle that names no event — what scheduling at
    [Time.infinity] returns. Cancelling it is a no-op. *)

val create : ?recorder:Obs.Recorder.t -> unit -> t
(** [create ~recorder ()] wires the engine's structural observability
    hooks — a record per event scheduled, fired or cancelled — into the
    given recorder (see {!Obs.Recorder}; defaults to a disabled one, in
    which case each hook costs a single branch). The event queue is a
    hierarchical timing wheel ({!Wheel}). *)

val now : t -> Time.t
(** Current virtual time. *)

val recorder : t -> Obs.Recorder.t
(** The recorder this engine (and every component built on it) emits
    into — one per simulated world. *)

val schedule : t -> ?owner:int -> at:Time.t -> (unit -> unit) -> event_id
(** [schedule t ~owner ~at f] runs [f] when the clock reaches [at]. [at]
    must not be in the past. Scheduling at [Time.infinity] is a no-op
    that returns {!no_event}. [owner] is the process the event belongs
    to (default: ownerless); a parallel step partitions its batch on
    it. Events get trace ids in scheduling order.

    Inside a parallel step (see {!set_sharding}) the event is staged
    without a slot or an id — worker domains take neither; both are
    assigned at the sub-round merge, in the pop loop's order — so the
    returned handle names no event and {!cancel} rejects it. Outside a
    parallel step handles are ordinary.
    @raise Invalid_argument if [owner] is below [-1] or does not fit
    the event's 21-bit owner field, or if more than 2{^26} events are
    pending at once (the handle's slot field). *)

val schedule_after : t -> ?owner:int -> delay:Time.t -> (unit -> unit) -> event_id
(** [schedule_after t ~delay f] = [schedule t ~at:(now t + delay) f]. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event; cancelling a fired or already-cancelled event
    is a no-op, even after its slot has been reused (a handle's id field
    is 36 bits wide, so only a handle held across 2{^36} later events
    could alias a new event of its slot).
    @raise Invalid_argument for a handle returned inside a parallel
    step. *)

val run : t -> until:Time.t -> unit
(** Process events in time order until the queue is empty or the next
    event is strictly later than [until]. The clock is left at the time of
    the last processed event (or unchanged if none fired). *)

val run_all : t -> unit
(** Process events until the queue is empty. Only safe for event graphs
    that quiesce. *)

val pending : t -> int
(** Number of events still queued. Cancelled husks count until they are
    popped or reclaimed — the queue compacts itself once more than half
    of its entries are cancelled. *)

val processed : t -> int
(** Total number of events fired so far. *)

val set_sharding : t -> pool:Exec.Pool.t -> shards:int -> n:int -> unit
(** [set_sharding t ~pool ~shards ~n] attaches [pool] and partitions
    owner pids [0, n) into [shards] contiguous shards (clamped to [n]).
    With more than one shard, ticks fire as parallel steps on the pool
    whenever full tracing is off; attaching the pool is the caller's
    assertion that every handler is shard-safe. With one shard the pop
    loop runs as without a pool. Call before running; raises
    [Invalid_argument] mid-step, if [shards < 1] or if [n] exceeds the
    owner field. *)

val shards : t -> int
(** Number of shards the owner pids are partitioned into; 0 until
    {!set_sharding} attaches a pool. *)

val shard_of : t -> int -> int
(** [shard_of t owner] is the shard owning that pid under the current
    partition (0 for ownerless / unsharded). *)

val fire_rank : t -> int
(** Pop rank, within its step, of the event currently firing on this
    domain in a parallel step; -1 anywhere else, the pop loop included.
    The canonical-merge key for staged per-shard effects. *)

val fire_shard : t -> int
(** Shard of the event currently firing on this domain in a parallel
    step; -1 anywhere else, the pop loop included. Components that stage
    cross-shard effects stage them only when this is [>= 0], and apply
    them in place otherwise. *)

val add_step_hook : t -> (unit -> unit) -> unit
(** Register a hook run (on the submitting domain) after every
    sub-round merge of a parallel step — where components with their own
    per-shard staging (e.g. [Net.Link_stats]) apply buffered cross-shard
    effects in canonical order. The pop loop never calls it. *)
