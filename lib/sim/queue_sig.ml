(** The event-queue contract the engine programs against.

    Two implementations satisfy it: {!Pqueue}, the reference binary heap
    (O(log n) operations, any integer priority), and {!Wheel}, the
    hierarchical timing wheel (amortised O(1) operations, non-negative
    priorities that never go below the last popped one — exactly the
    discipline a virtual-time engine follows). The differential tests in
    [test/test_sim.ml] drive both through identical randomized
    schedule/cancel/pop workloads and assert equal pop streams, husks
    included, so the engine can switch backend without observable
    change. *)

module type S = sig
  type 'a t

  val create : ?dead:('a -> bool) -> unit -> 'a t
  (** [create ~dead ()] makes an empty queue. [dead v] must answer
      whether entry [v] has been logically cancelled; it is consulted
      during compaction and on {!pop} to maintain the dead-entry count.
      Without [dead], the queue never compacts. *)

  val add : 'a t -> prio:int -> 'a -> unit
  (** Insert an element with the given priority. Rejects [max_int]
      ([Time.infinity]) with [Invalid_argument]: that priority is the
      "never" sentinel, not a schedulable tick. *)

  val note_dead : 'a t -> unit
  (** Tell the queue one of its entries just became dead. May trigger a
      compaction that drops every entry for which the [dead] predicate
      holds. Call at most once per logically cancelled entry. *)

  val compact : 'a t -> unit
  (** Force a rebuild dropping dead entries now. No-op without a [dead]
      predicate. *)

  val min_prio : 'a t -> int
  (** Priority of the minimum entry, or [max_int] ([Time.infinity]) when
      the queue is empty — never a queued priority, since {!add} rejects
      it. Allocation-free. *)

  val pop : 'a t -> 'a
  (** Remove the minimum entry, FIFO among equal priorities, and return
      its value; its priority is what {!min_prio} answered just before.
      Allocation-free: together with {!min_prio} this replaces an
      option-of-pair result on the engine's per-event path. Dead entries
      are returned like any other (the caller skips them); popping one
      decrements the dead-entry count.
      @raise Invalid_argument on an empty queue. *)

  val size : 'a t -> int
  (** Entries currently queued, including dead husks not yet reclaimed
      by compaction. *)

  val is_empty : 'a t -> bool
  val clear : 'a t -> unit
end
