(** Clocks and process gauges. Times are taken on the monotonic wall
    clock; process CPU time is reported separately, because CPU summed
    over domains cannot show a parallel speed-up. *)

val now_ns : unit -> int
(** Monotonic wall clock, nanoseconds. *)

val since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val time : (unit -> 'a) -> 'a * float
(** Result and wall seconds of a call. *)

val cpu_s : unit -> float
(** CPU seconds (user + system) of the whole process, all domains. *)

val peak_rss_mb : unit -> float
(** Peak resident set of this process so far ([VmHWM]), in MiB. *)
