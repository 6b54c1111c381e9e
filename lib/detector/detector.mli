(** Failure-detector interface.

    A detector is a distributed oracle: each process [i] can query the set
    of neighbors it currently suspects of having crashed. The dining
    algorithm is written against this interface only, so the same code runs
    with the paper's assumed eventually-perfect detector ◇P₁
    ({!module:Oracle}, {!module:Heartbeat}), a perpetually perfect one
    ({!module:Perfect}), or none at all ({!module:Never} — which recovers
    the crash-intolerant Choy–Singh baseline). *)

type t = {
  name : string;
  suspects : observer:int -> target:int -> bool;
      (** Does [observer]'s local module currently suspect [target]? Only
          meaningful for neighbors in the conflict graph (◇P₁ is locally
          scope-restricted). *)
  subscribe : (int -> unit) -> unit;
      (** Register a callback fired with an observer's pid whenever that
          observer's suspicion output changes. This is how "suspicion can
          substitute for a missing message" wakes up blocked guards without
          polling. *)
}

val subscribe : (int -> unit) list ref -> (int -> unit) -> unit
(** Helper for implementations: append a listener, keeping the list in
    subscription order. *)

val notify : (int -> unit) list ref -> int -> unit
(** Helper for implementations: invoke all listeners for an observer, in
    subscription order (the order {!subscribe} maintains). Allocates
    nothing. *)
