(** In-memory spans recorded around calls into each layer.

    A span has a name, a start and an end on the monotonic clock, and the
    span that caused it. Spans stay in memory while the workload runs and
    are written out once it ends. A disabled recorder records nothing, so
    the untraced run pays one branch per boundary. *)

type span = { id : int; name : string; parent : int; start_ns : int; stop_ns : int }
(** [parent] is [-1] for a top-level span. *)

type t

val create : enabled:bool -> t
val enabled : t -> bool

val enter : t -> ?parent:int -> string -> int
(** Open a span; returns its id ([-1] when disabled). *)

val exit : t -> int -> unit
(** Close the span with this id. *)

val with_ : t -> ?parent:int -> string -> (int -> 'a) -> 'a
(** Run the function inside a span (passed its id), closing the span
    even if it raises. *)

val spans : t -> span list
(** Closed spans, in the order they were opened. *)

val duration_ns : span -> int

val self_ns : span list -> span -> int
(** Duration minus the part of the span's interval that its children
    cover; overlapping children are counted once and clipped to the
    parent's interval. *)

val total_s : span list -> string -> float
(** Summed duration of every span with this name, in seconds. *)

val self_s : span list -> string -> float
(** Summed self time of every span with this name, in seconds. *)

val write_jsonl : string -> span list -> unit
(** One JSON object per span: id, name, parent, start/end (ns from the
    first span) and self time. Creates the file's directory. *)
