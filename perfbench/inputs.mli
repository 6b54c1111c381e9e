(** The benchmark's workloads and the inputs each makes from its seed.
    The program under test only ever sees the generated scenarios. *)

type workload = Large_sparse | Contended_churn | Fuzz_hostile

val all : workload list

val benchmarked : workload list
(** The workloads BENCHMARK.json names; [Large_sparse] runs only by hand. *)

val name : workload -> string
val of_name : string -> workload option

val scenario : workload -> seed:int -> Harness.Scenario.t
(** The world a world workload runs: deterministic in [seed].
    @raise Invalid_argument for [Fuzz_hostile], which runs a campaign. *)

val fuzz_cases : int
(** Cases in one [fuzz_hostile] campaign. *)

val fuzz_profile : Fuzz.Gen.profile

val campaign_seed : seed:int -> int64
(** The campaign seed [fuzz_hostile] hands to {!Fuzz.Campaign.run}. *)

val end_to_end : string list
(** The metrics a [--trace 0] run reports, as named in BENCHMARK.json. *)

val per_layer : string list
(** The metrics a [--trace 1] run reports, as named in BENCHMARK.json. *)
