(** Growable int vector: the monitors' append-only logs.

    A log entry is a few ints pushed onto parallel vectors instead of a
    record consed onto a list, so logging allocates only when a vector
    doubles, and the storage is flat arrays holding no pointers. *)

type t

val create : unit -> t
val length : t -> int

val get : t -> int -> int
(** [get v i] for [0 <= i < length v]. *)

val push : t -> int -> unit
(** Append at the end. Amortised O(1). *)
