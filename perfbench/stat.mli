(** Summary statistics for timings and operation counts. *)

val median : float list -> float
(** Median (mean of the two middle values for an even count).
    @raise Invalid_argument on an empty list. *)

val percentile : p:float -> float list -> (float, string) result
(** Nearest-rank percentile. Refused ([Error]) when fewer than ten
    samples lie beyond it, since such a tail is one or two outliers. *)

val tail : float list -> (float * float) option
(** [(p, value)] for the highest of p99.9, p99, p95, p90 and p75 that
    {!percentile} accepts; [None] when none is. *)

type ops = { attempted : int; failed : int }
(** Operations attempted and failed by a workload. *)

val count : ('a -> bool) -> 'a list -> ops
(** Attempted = every element; failed = those the predicate marks. *)

val failure_share : ops -> float
(** [failed / attempted]; 0 when nothing was attempted. *)
