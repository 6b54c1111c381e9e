(** Hierarchical timing wheel: the engine's event queue.

    Eight levels of 256 slots cover the full non-negative tick range;
    an entry is filed at the level of the highest byte in which its
    tick differs from the wheel's floor (the last popped tick).
    Schedule, fire and cancel are amortised O(1): popping drains one
    level-0 slot at a time into a FIFO buffer, occasionally cascading a
    higher-level slot down one level.

    Observably the wheel is a priority queue on (priority, insertion
    order): entries pop in priority order, FIFO among equal priorities.
    Cancelled entries stay queued as husks until popped or compacted
    away; once at least 16 entries are queued and more than half of
    them are known dead, the wheel drops them all. The differential
    test in [test/test_sim.ml] holds it to a plain reference queue with
    the same order and the same husk accounting. The wheel's own
    constraints, priorities non-negative and never below the last
    popped one, are exactly the discipline a virtual-time engine
    follows; violations raise [Invalid_argument]. *)

type 'a t

val create : ?dead:('a -> bool) -> unit -> 'a t
(** [create ~dead ()] makes an empty wheel. [dead v] must answer
    whether entry [v] has been logically cancelled; it is consulted
    during compaction and on {!pop} to maintain the dead-entry count.
    Without [dead], the wheel never compacts. *)

val add : 'a t -> prio:int -> 'a -> unit
(** Insert an element with the given priority (tick). Amortised O(1).
    Every finite tick up to [max_int - 1] is representable.
    @raise Invalid_argument if [prio] is negative, below the last
    popped tick, or equal to [max_int] ([Time.infinity], the "never"
    sentinel — such an event would never fire). *)

val note_dead : 'a t -> unit
(** Tell the wheel one of its entries just became dead. May trigger a
    compaction that drops every entry for which the [dead] predicate
    holds. Call at most once per logically cancelled entry. *)

val min_prio : 'a t -> int
(** Priority of the minimum entry, or [max_int] ([Time.infinity]) when
    the wheel is empty — never a queued priority, since {!add} rejects
    it. Does not advance the wheel; allocation-free except when a
    cascaded slot's minimum must be recomputed. *)

val pop : 'a t -> 'a
(** Remove the minimum entry, FIFO among equal priorities, and return
    its value (its priority is what {!min_prio} answered just before).
    Amortised O(1). Together with {!min_prio} this keeps the engine's
    per-event queue traffic free of option and pair allocations. Dead
    entries are returned like any other (the caller skips them);
    popping one decrements the dead-entry count.
    @raise Invalid_argument on an empty wheel. *)

val size : 'a t -> int
(** Entries currently queued, including dead husks not yet reclaimed
    by compaction. *)

val floor : 'a t -> int
(** The last popped tick — no queued entry is below it. Exposed for
    tests and diagnostics. *)
