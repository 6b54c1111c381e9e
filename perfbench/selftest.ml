(* Self-tests of the benchmark's own arithmetic and input generation. *)

open Perfbench

let sp id ?(parent = -1) a b = { Span.id; name = "s"; parent; start_ns = a; stop_ns = b }

let self_time () =
  let root = sp 0 0 100 in
  let nested = [ root; sp 1 ~parent:0 10 30; sp 2 ~parent:0 40 50; sp 3 ~parent:1 12 20 ] in
  Alcotest.(check int) "nested children" 70 (Span.self_ns nested root);
  Alcotest.(check int) "grandchild only counts in its parent" 12 (Span.self_ns nested (sp 1 ~parent:0 10 30));
  let overlapping = [ root; sp 1 ~parent:0 10 40; sp 2 ~parent:0 30 60; sp 3 ~parent:0 50 55 ] in
  Alcotest.(check int) "overlaps counted once" 50 (Span.self_ns overlapping root);
  let spilling = [ root; sp 1 ~parent:0 (-20) 10; sp 2 ~parent:0 90 130 ] in
  Alcotest.(check int) "clipped to the parent" 80 (Span.self_ns spilling root);
  Alcotest.(check int) "leaf" 100 (Span.self_ns [ root ] root)

let recorder () =
  let t = Span.create ~enabled:true in
  let v =
    Span.with_ t "outer" (fun o -> Span.with_ t ~parent:o "inner" (fun _ -> 42))
  in
  Alcotest.(check int) "result" 42 v;
  (match Span.spans t with
  | [ o; i ] ->
      Alcotest.(check (pair string int)) "outer" ("outer", -1) (o.name, o.parent);
      Alcotest.(check (pair string int)) "inner" ("inner", o.id) (i.name, i.parent);
      Alcotest.(check bool) "nested" true (o.start_ns <= i.start_ns && i.stop_ns <= o.stop_ns)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  let off = Span.create ~enabled:false in
  ignore (Span.with_ off "x" (fun _ -> ()));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Span.spans off))

let percentiles () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (result (float 0.) string)) "p99 of 1000" (Ok 990.) (Stat.percentile ~p:99. (xs 1000));
  Alcotest.(check bool) "p99 of 999 refused (9 beyond)" true
    (Result.is_error (Stat.percentile ~p:99. (xs 999)));
  Alcotest.(check bool) "p90 of 100 accepted (10 beyond)" true
    (Result.is_ok (Stat.percentile ~p:90. (xs 100)));
  Alcotest.(check bool) "empty refused" true (Result.is_error (Stat.percentile ~p:50. []));
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "tail of 1500" (Some (99., 1485.)) (Stat.tail (xs 1500));
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "tail of 20" None (Stat.tail (xs 20));
  Alcotest.(check (float 0.)) "median odd" 2. (Stat.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "median even" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ])

let failure_share () =
  let ops = Stat.count (fun x -> x mod 4 = 0) (List.init 10 Fun.id) in
  Alcotest.(check (pair int int)) "attempted, failed" (10, 3) (ops.attempted, ops.failed);
  Alcotest.(check (float 1e-12)) "share" 0.3 (Stat.failure_share ops);
  Alcotest.(check (float 0.)) "nothing attempted" 0. (Stat.failure_share (Stat.count (fun _ -> true) []))

let seeds () =
  List.iter
    (fun w ->
      let name = Inputs.name w in
      Alcotest.(check (option string)) "name round trip" (Some name) (Option.map Inputs.name (Inputs.of_name name));
      match w with
      | Inputs.Fuzz_hostile ->
          let gen seed =
            Fuzz.Gen.scenario ~profile:Inputs.fuzz_profile ~campaign_seed:(Inputs.campaign_seed ~seed) ~case:0
          in
          Alcotest.(check bool) (name ^ ": same seed, same case") true (gen 1 = gen 1);
          Alcotest.(check bool) (name ^ ": seed changes the case") false (gen 1 = gen 2)
      | _ ->
          let s1 = Inputs.scenario w ~seed:1 and s2 = Inputs.scenario w ~seed:2 in
          Alcotest.(check bool) (name ^ ": same seed, same scenario") true (s1 = Inputs.scenario w ~seed:1);
          Alcotest.(check bool) (name ^ ": seed changes the scenario") false (s1 = s2);
          (* A seed must change the world itself, not only its label. *)
          Alcotest.(check bool) (name ^ ": seed changes the stream") false (s1.seed = s2.seed))
    Inputs.all;
  let sf s = match (Inputs.scenario Inputs.Large_sparse ~seed:s).topology with
    | Cgraph.Topology.Scale_free (_, _, g) -> g | _ -> Alcotest.fail "large_sparse is scale-free"
  in
  Alcotest.(check bool) "large_sparse: seed changes the graph" false (sf 1 = sf 2)

(* The names the program reports are the ones BENCHMARK.json declares
   and metrics.json documents. *)
let contract () =
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let bench = read "../BENCHMARK.json" and doc = read "metrics.json" in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let count hay needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length hay then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let names = List.map Inputs.name Inputs.benchmarked @ Inputs.end_to_end @ Inputs.per_layer in
  List.iter
    (fun w ->
      let n = Inputs.name w in
      Alcotest.(check bool) ("metrics.json documents " ^ n) true (contains doc (Printf.sprintf "%S" n)))
    Inputs.all;
  List.iter
    (fun n ->
      Alcotest.(check bool) ("BENCHMARK.json names " ^ n) true (contains bench (Printf.sprintf "\"name\": %S" n));
      Alcotest.(check bool) ("metrics.json documents " ^ n) true (contains doc (Printf.sprintf "%S" n)))
    names;
  Alcotest.(check int) "no other names in BENCHMARK.json" (List.length names) (count bench "\"name\":")

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "span recorder" `Quick recorder;
          Alcotest.test_case "percentile refusal" `Quick percentiles;
          Alcotest.test_case "failure share" `Quick failure_share;
          Alcotest.test_case "seed changes inputs" `Quick seeds;
          Alcotest.test_case "names match BENCHMARK.json" `Quick contract;
        ] );
    ]
