(** Hierarchical timing wheel: the engine's event queue.

    Eight levels of 256 slots cover the full non-negative tick range;
    an entry is filed at the level of the highest byte in which its
    tick differs from the wheel's floor (the last popped tick).
    Schedule, fire and cancel are amortised O(1): popping drains one
    level-0 slot at a time into a FIFO buffer, occasionally cascading a
    higher-level slot down one level.

    Entries carry an int payload (the engine stores its event's slab
    index there) and the wheel stores them in flat int arrays, so it
    holds no pointers: queue links are plain int stores with no GC
    write barrier, released entries are recycled, and a wheel in steady
    state allocates nothing. Level arrays are allocated on first use.

    Observably the wheel is a priority queue on (priority, insertion
    order): entries pop in priority order, FIFO among equal priorities.
    Cancelled entries stay queued as husks until popped or compacted
    away; once at least 16 entries are queued and more than half of
    them are known dead, the wheel drops them all. The differential
    tests in [test/test_sim.ml] hold it to a plain reference queue with
    the same order and the same husk accounting. The wheel's own
    constraints, priorities non-negative and never below the last
    popped one, are exactly the discipline a virtual-time engine
    follows; violations raise [Invalid_argument]. *)

type t

val create : ?dead:(int -> bool) -> unit -> t
(** [create ~dead ()] makes an empty wheel. [dead v] must answer
    whether the entry with payload [v] has been logically cancelled.
    Only compaction consults it, once per queued entry; an entry it
    answers [true] for is dropped on the spot, so the caller may
    recycle that payload from within [dead]. Without [dead], the wheel
    never compacts. *)

val add : t -> prio:int -> int -> unit
(** Insert a payload with the given priority (tick). Amortised O(1).
    Every finite tick up to [max_int - 1] is representable.
    @raise Invalid_argument if [prio] is negative, below the last
    popped tick, or equal to [max_int] ([Time.infinity], the "never"
    sentinel — such an event would never fire). *)

val note_dead : t -> unit
(** Tell the wheel one of its entries just became dead. May trigger a
    compaction that drops every entry for which the [dead] predicate
    holds. Call at most once per logically cancelled entry. *)

val note_popped_dead : t -> unit
(** Tell the wheel that the entry {!pop} just returned was dead, so the
    dead-entry count drops by one. The wheel does not ask [dead] on
    pop: its caller already inspects what it popped. *)

val min_prio : t -> int
(** Priority of the minimum entry, or [max_int] ([Time.infinity]) when
    the wheel is empty — never a queued priority, since {!add} rejects
    it. Does not advance the wheel and allocates nothing; the frontier
    slot it finds is kept for the {!pop} that follows. *)

val pop : t -> int
(** Remove the minimum entry, FIFO among equal priorities, and return
    its payload (its priority is what {!min_prio} answered just
    before). Amortised O(1), allocation-free. Dead entries are returned
    like any other (the caller skips them and reports them with
    {!note_popped_dead}).
    @raise Invalid_argument on an empty wheel. *)

val size : t -> int
(** Entries currently queued, including dead husks not yet reclaimed
    by compaction. *)

val floor : t -> int
(** The last popped tick — no queued entry is below it. Exposed for
    tests and diagnostics. *)
