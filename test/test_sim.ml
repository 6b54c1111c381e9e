(* Tests for the simulation substrate: Time, Rng, Wheel, Engine, Trace. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------- Time ------------------------------ *)

let time_add_saturates () =
  check int "inf + 1 = inf" Sim.Time.infinity (Sim.Time.add Sim.Time.infinity 1);
  check int "1 + inf = inf" Sim.Time.infinity (Sim.Time.add 1 Sim.Time.infinity);
  check int "near-overflow saturates" Sim.Time.infinity (Sim.Time.add (max_int - 1) (max_int - 1));
  check int "ordinary addition" 7 (Sim.Time.add 3 4)

let time_predicates () =
  check bool "zero finite" true (Sim.Time.is_finite Sim.Time.zero);
  check bool "infinity not finite" false (Sim.Time.is_finite Sim.Time.infinity);
  check Alcotest.string "pp finite" "42" (Sim.Time.to_string 42);
  check Alcotest.string "pp infinite" "inf" (Sim.Time.to_string Sim.Time.infinity)

(* ------------------------------- Rng ------------------------------- *)

let rng_deterministic () =
  let a = Sim.Rng.create 99L and b = Sim.Rng.create 99L in
  for _ = 1 to 100 do
    check int "same seed same stream" (Sim.Rng.int a 1_000_000) (Sim.Rng.int b 1_000_000)
  done

let rng_seed_sensitivity () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 20 do
    if Sim.Rng.int a 1_000_000 <> Sim.Rng.int b 1_000_000 then differs := true
  done;
  check bool "different seeds diverge" true !differs

let rng_split_named_stable () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  let sa = Sim.Rng.split_named a "workload" and sb = Sim.Rng.split_named b "workload" in
  check int "named split deterministic" (Sim.Rng.int sa 1000) (Sim.Rng.int sb 1000);
  (* split_named must not consume parent randomness *)
  check int "parent untouched" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)

let rng_split_named_distinct () =
  let rng = Sim.Rng.create 7L in
  let s1 = Sim.Rng.split_named rng "one" and s2 = Sim.Rng.split_named rng "two" in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.int s1 1_000_000 <> Sim.Rng.int s2 1_000_000 then differs := true
  done;
  check bool "distinct labels diverge" true !differs

let rng_ranges =
  QCheck.Test.make ~name:"rng: int_in stays in range" ~count:500
    QCheck.(triple small_int small_int (int_bound 1000))
    (fun (a, b, seed) ->
      let lo = min a b and hi = max a b in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let x = Sim.Rng.int_in rng lo hi in
      x >= lo && x <= hi)

let rng_float_range =
  QCheck.Test.make ~name:"rng: float in [0,1)" ~count:500 QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let f = Sim.Rng.float rng in
      f >= 0.0 && f < 1.0)

let rng_shuffle_permutes () =
  let rng = Sim.Rng.create 5L in
  let a = Array.init 100 Fun.id in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "shuffle is a permutation" true (sorted = Array.init 100 Fun.id);
  check bool "shuffle moved something" true (a <> Array.init 100 Fun.id)

let rng_split_independent () =
  let parent = Sim.Rng.create 9L in
  let child = Sim.Rng.split parent in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.int parent 1_000_000 <> Sim.Rng.int child 1_000_000 then differs := true
  done;
  check bool "split stream diverges from parent" true !differs

let rng_pick_uniformish () =
  let rng = Sim.Rng.create 13L in
  let values = [| 10; 20; 30 |] in
  let seen = Hashtbl.create 3 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (Sim.Rng.pick rng values) ()
  done;
  check int "all elements eventually picked" 3 (Hashtbl.length seen)

let rng_exponential_positive () =
  let rng = Sim.Rng.create 11L in
  for _ = 1 to 100 do
    check bool "exponential >= 0" true (Sim.Rng.exponential rng ~mean:10.0 >= 0.0)
  done

(* Minor-heap words [f] allocates per call, over [n] calls after a
   warm-up (the measurement itself allocates nothing). *)
let words_per_call n f =
  for _ = 1 to 16 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The generator keeps its state unboxed, so an int draw allocates
   nothing. A float draw's only allocation is its returned float, boxed
   when the call crosses a module boundary without being inlined (as
   under dune's -opaque dev profile); an inlining build drops it. *)
let rng_draws_allocate_nothing () =
  let r = Sim.Rng.create 5L in
  let acc = ref 0 in
  let per name f = words_per_call 10_000 f |> check (Alcotest.float 0.) name 0. in
  per "int draw" (fun () -> acc := !acc + Sim.Rng.int r 1000);
  per "int_in draw" (fun () -> acc := !acc + Sim.Rng.int_in r 1 8);
  per "bool draw" (fun () -> if Sim.Rng.bool r then incr acc);
  let float_words = words_per_call 10_000 (fun () -> if Sim.Rng.float r < 0.5 then incr acc) in
  check bool "float draw: at most the boxed result" true (float_words <= 2.);
  ignore (Sys.opaque_identity !acc)

(* The stream is pinned: the first 64 outputs for three seeds, through
   every derivation, hash to recorded values (taken from the boxed-state
   implementation, so any drift in the splitmix stream, and with it every
   seeded run, fails here). Columns: seed, first bits64 output,
   then MD5s of 64 bits64 outputs, 64 [int_in 1 1000] draws, 64 floats
   (printed with %h), 64 outputs of [split_named _ "workload"] and 64 of
   [split]. *)
let rng_stream_recorded () =
  let digest_of f =
    Digest.to_hex (Digest.string (String.concat " " (List.init 64 (fun _ -> f ()))))
  in
  let hex r () = Printf.sprintf "%016Lx" (Sim.Rng.bits64 r) in
  List.iter
    (fun (seed, first, bits, ints, floats, named, split) ->
      let fresh () = Sim.Rng.create seed in
      check Alcotest.int64 "first output" first (Sim.Rng.bits64 (fresh ()));
      check Alcotest.string "bits64 stream" bits (digest_of (hex (fresh ())));
      let r = fresh () in
      check Alcotest.string "int_in stream" ints
        (digest_of (fun () -> string_of_int (Sim.Rng.int_in r 1 1000)));
      let r = fresh () in
      check Alcotest.string "float stream" floats
        (digest_of (fun () -> Printf.sprintf "%h" (Sim.Rng.float r)));
      check Alcotest.string "split_named stream" named
        (digest_of (hex (Sim.Rng.split_named (fresh ()) "workload")));
      check Alcotest.string "split stream" split (digest_of (hex (Sim.Rng.split (fresh ())))))
    [
      ( 0L, 0xe220a8397b1dcdafL, "56ec3429db44dd96aef64c3309d15f04",
        "7adc4e390887f113daf115f4a4b8c2a9", "eb203c03ac69d3743e8e7ef8106a979e",
        "0324d15138055d429408f8e4822ab154", "9e6191e25b2e4c00528f4ded113b79e9" );
      ( 1L, 0x910a2dec89025cc1L, "d7ba949d62c675672bb1e924a3b2ec8d",
        "8064cae685700146c30fd5c07ec7dffa", "274fe19dc447ad7152c906600ae51762",
        "cef213522e4c32b697a167c5a8c33c66", "6aadc7cc29224e65edf6badb19e8b839" );
      ( 24301L, 0x09f1fd9d03f0a9b4L, "e0ad03dce65450e7cee3f0e5e1857e22",
        "75da55982336c78d1577cc9428c7299c", "f5cd98f60cc19569d1d34679cc934e33",
        "8ccb5d3fc1af5c2157ecd9b6685211b6", "ab4414f5a75c941f86d1d40a017eb02d" );
    ]

(* ------------------------------ Wheel ------------------------------ *)

(* The queues answer min_prio (max_int when empty) and pop the value;
   the tests compare (priority, value) pairs and options of them. *)
let wh_peek q = match Sim.Wheel.min_prio q with p when p = max_int -> None | p -> Some p
let wh_pop q = Option.map (fun p -> (p, Sim.Wheel.pop q)) (wh_peek q)
let ref_peek q = match Queue_reference.min_prio q with p when p = max_int -> None | p -> Some p
let ref_pop q = Option.map (fun p -> (p, Queue_reference.pop q)) (ref_peek q)

(* Drains [q] and keeps the values [keep] accepts, in pop order. *)
let wh_drain ?(keep = fun _ -> true) q =
  let rec go acc =
    match wh_pop q with None -> List.rev acc | Some (_, v) -> go (if keep v then v :: acc else acc)
  in
  go []

let wheel_orders () =
  let q = Sim.Wheel.create () in
  List.iter (fun p -> Sim.Wheel.add q ~prio:p p) [ 5; 1; 4; 1; 3 ];
  let order = List.init 5 (fun _ -> fst (Option.get (wh_pop q))) in
  check (Alcotest.list int) "sorted" [ 1; 1; 3; 4; 5 ] order;
  check int "now empty" 0 (Sim.Wheel.size q)

let wheel_fifo_ties () =
  let q = Sim.Wheel.create () in
  let names = [| "a"; "b"; "c"; "d" |] in
  Array.iteri (fun i _ -> Sim.Wheel.add q ~prio:7 i) names;
  let labels = List.init 4 (fun _ -> names.(snd (Option.get (wh_pop q)))) in
  check (Alcotest.list Alcotest.string) "insertion order at equal prio" [ "a"; "b"; "c"; "d" ]
    labels

let wheel_interleaved () =
  let q = Sim.Wheel.create () in
  Sim.Wheel.add q ~prio:10 10;
  Sim.Wheel.add q ~prio:1 1;
  check (Alcotest.option int) "peek min" (Some 1) (wh_peek q);
  ignore (wh_pop q);
  Sim.Wheel.add q ~prio:5 5;
  check int "size" 2 (Sim.Wheel.size q);
  check (Alcotest.option int) "next is 5" (Some 5) (wh_peek q)

let wheel_empty_pop () =
  let q = Sim.Wheel.create () in
  check int "min_prio of empty is Time.infinity" Sim.Time.infinity (Sim.Wheel.min_prio q);
  check bool "pop empty raises" true
    (match Sim.Wheel.pop q with _ -> false | exception Invalid_argument _ -> true)

let wheel_sorts =
  QCheck.Test.make ~name:"wheel: drains any multiset in sorted order" ~count:200
    QCheck.(list small_nat)
    (fun prios ->
      let q = Sim.Wheel.create () in
      List.iter (fun p -> Sim.Wheel.add q ~prio:p p) prios;
      wh_drain q = List.sort compare prios)

let wheel_compacts_when_mostly_dead () =
  let dead = Hashtbl.create 64 in
  let q = Sim.Wheel.create ~dead:(Hashtbl.mem dead) () in
  for i = 0 to 99 do
    Sim.Wheel.add q ~prio:i i
  done;
  check int "full before cancellations" 100 (Sim.Wheel.size q);
  for i = 0 to 59 do
    Hashtbl.replace dead i ();
    Sim.Wheel.note_dead q
  done;
  check bool "husks reclaimed" true (Sim.Wheel.size q < 100);
  check bool "live entries kept" true (Sim.Wheel.size q >= 40);
  check (Alcotest.list int) "live order preserved" (List.init 40 (fun i -> 60 + i))
    (wh_drain ~keep:(fun v -> not (Hashtbl.mem dead v)) q)

(* The note that tips the dead count past half the queue compacts it on
   the spot: no husk survives, and order and FIFO ties are kept. *)
let wheel_forced_compact () =
  let dead = Hashtbl.create 16 in
  let q = Sim.Wheel.create ~dead:(Hashtbl.mem dead) () in
  let prios = List.init 20 (fun i -> [| 5; 1; 4; 1; 3 |].(i mod 5)) in
  List.iteri (fun i p -> Sim.Wheel.add q ~prio:p i) prios;
  let kill k =
    Hashtbl.replace dead k ();
    Sim.Wheel.note_dead q
  in
  for k = 0 to 9 do
    kill k
  done;
  check int "half dead: husks still queued" 20 (Sim.Wheel.size q);
  kill 10;
  check int "one more: every husk dropped" 9 (Sim.Wheel.size q);
  let expected =
    List.filteri (fun i _ -> i > 10) (List.mapi (fun i p -> (i, p)) prios)
    |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
  in
  check (Alcotest.list (Alcotest.pair int int)) "order and FIFO ties survive compaction" expected
    (List.map (fun i -> (i, List.nth prios i)) (wh_drain q))

let wheel_compaction_agrees =
  (* Draining a compacting queue after arbitrary cancellations yields the
     same live sequence as filtering a plain queue's drain. *)
  QCheck.Test.make ~name:"wheel: compaction never changes the live drain" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 0 60) (int_bound 20)) (int_bound 1000))
    (fun (prios, salt) ->
      let dead = Hashtbl.create 16 in
      let is_dead i = Hashtbl.mem dead i in
      let q = Sim.Wheel.create ~dead:is_dead () in
      let plain = Sim.Wheel.create () in
      List.iteri
        (fun i p ->
          Sim.Wheel.add q ~prio:p i;
          Sim.Wheel.add plain ~prio:p i)
        prios;
      List.iteri
        (fun i _ ->
          if ((i * 7919) + salt) mod 7 < 4 then begin
            Hashtbl.replace dead i ();
            Sim.Wheel.note_dead q
          end)
        prios;
      let live v = not (is_dead v) in
      wh_drain ~keep:live q = wh_drain ~keep:live plain)

(* Priorities spanning every wheel level, including ticks far beyond the
   low levels' horizon, drain in global order with ties FIFO. *)
let wheel_multilevel_spans () =
  let q = Sim.Wheel.create () in
  let prios =
    [ 0; 255; 256; 257; 65_535; 65_536; 1; 16_777_215; 16_777_216; (1 lsl 40) + 3; 1 lsl 40 ]
  in
  List.iteri (fun i p -> Sim.Wheel.add q ~prio:p i) prios;
  check (Alcotest.list int) "global order across levels"
    (List.sort compare prios) (List.map (List.nth prios) (wh_drain q))

let wheel_floor_rejects_past () =
  let q = Sim.Wheel.create () in
  Sim.Wheel.add q ~prio:100 1;
  ignore (wh_pop q);
  check int "floor tracks the last popped tick" 100 (Sim.Wheel.floor q);
  let rejected =
    match Sim.Wheel.add q ~prio:99 2 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool "adds below the floor are rejected" true rejected;
  (* Adding exactly at the floor (the engine's "schedule now") is fine. *)
  Sim.Wheel.add q ~prio:100 3;
  check (Alcotest.option int) "same-tick add lands at the floor" (Some 100)
    (wh_peek q)

(* One step of a differential run: add an entry [delta] ticks after the
   last popped tick, pop, or cancel the [k mod n]-th of the n entries
   the op stream has added so far ([Cancel_any], which may hit popped or
   already cancelled entries) or of those still queued ([Cancel_queued],
   what the engine does). *)
type qop = Add of int | Pop | Cancel_any of int | Cancel_queued of int

(* Runs [ops] on the wheel and on the reference queue side by side and
   answers whether they agree: identical pop streams (husks included),
   identical peeks and sizes after every operation, and an identical
   final drain. Popped husks are reported to both, as the engine does. *)
let agrees_with_reference ops =
  let dead = Hashtbl.create 16 in
  let is_dead i = Hashtbl.mem dead i in
  let w = Sim.Wheel.create ~dead:is_dead () in
  let r = Queue_reference.create ~dead:is_dead () in
  let now = ref 0 and next = ref 0 and ok = ref true in
  let added = ref [] and queued = ref [] in
  let pop_both () =
    let a = wh_pop w and b = ref_pop r in
    ok := !ok && a = b;
    (match a with
    | Some (t, v) ->
        now := t;
        queued := List.filter (( <> ) v) !queued;
        if is_dead v then Sim.Wheel.note_popped_dead w
    | None -> ());
    (match b with Some (_, v) when is_dead v -> Queue_reference.note_popped_dead r | _ -> ());
    a <> None
  in
  let kill k =
    if not (is_dead k) then begin
      Hashtbl.replace dead k ();
      Sim.Wheel.note_dead w;
      Queue_reference.note_dead r
    end
  in
  List.iter
    (fun op ->
      (match op with
      | Add delta ->
          let prio = !now + delta and v = !next in
          incr next;
          added := v :: !added;
          queued := v :: !queued;
          Sim.Wheel.add w ~prio v;
          Queue_reference.add r ~prio v
      | Pop -> ignore (pop_both () : bool)
      | Cancel_any k -> (
          match !added with [] -> () | l -> kill (List.nth l (k mod List.length l)))
      | Cancel_queued k -> (
          match List.filter (fun v -> not (is_dead v)) !queued with
          | [] -> ()
          | l -> kill (List.nth l (k mod List.length l))));
      ok := !ok && wh_peek w = ref_peek r && Sim.Wheel.size w = Queue_reference.size r)
    ops;
  while pop_both () do
    ()
  done;
  !ok

let wheel_matches_reference =
  (* The wheel must behave exactly like the plain reference queue under
     arbitrary interleavings of add / pop / cancel with the shared
     dead-husk compaction policy. *)
  QCheck.Test.make ~name:"wheel: bit-identical to the reference queue on random workloads"
    ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 120) (int_bound 100_000)) (int_bound 10_000))
    (fun (codes, salt) ->
      agrees_with_reference
        (List.map
           (fun code ->
             match code mod 3 with
             | 0 ->
                 (* Mostly short hops, occasionally a jump that crosses
                    several wheel levels. *)
                 Add
                   (if code mod 5 = 0 then (((code / 3) mod 4) * 1_000_000) + (code mod 97)
                    else (code / 3) mod 500)
             | 1 -> Pop
             | _ -> Cancel_any (code + salt))
           codes))

(* The regime a fuzz world runs in: at most 16 entries in flight, gaps
   that cross levels 1-3, and runs of thousands of operations, so every
   entry cell is released and reused many times over. *)
let wheel_matches_reference_sparse =
  QCheck.Test.make ~name:"wheel: matches the reference when sparse, across levels 1-3" ~count:60
    QCheck.(list_of_size Gen.(int_range 500 3000) (pair (int_bound 9) (int_bound 1_000_000)))
    (fun steps ->
      let in_flight = ref 0 in
      let ops =
        List.map
          (fun (kind, m) ->
            if kind <= 4 && !in_flight < 16 then begin
              incr in_flight;
              (* Level 0, 1, 2 or 3 from the floor. *)
              Add
                (match m mod 4 with
                | 0 -> m mod 256
                | 1 -> 256 + (m mod 65_280)
                | 2 -> 65_536 + (m * 16 mod 16_711_680)
                | _ -> 16_777_216 + (m * 4_096))
            end
            else if kind <= 7 || !in_flight >= 16 then begin
              in_flight := max 0 (!in_flight - 1);
              Pop
            end
            else Cancel_queued m)
          steps
      in
      agrees_with_reference ops)

(* ------------------------------ Engine ----------------------------- *)

(* Scheduling and firing a no-op event allocates nothing once the
   engine's slab and the wheel's cells have grown to the run's peak of
   pending events: an event is an int state word and a closure pointer
   in recycled slots, and its queue entry is three ints. Many events
   stay pending throughout, so the wheel files, cascades and drains as
   in a run. *)
let engine_noop_event_allocation () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  (* 64 chains of self-rescheduling events with delays up to 300 ticks:
     the one [tick] closure is built here, not per event. *)
  let rec tick () =
    incr fired;
    if !fired < 100_000 then
      ignore (Sim.Engine.schedule_after engine ~delay:(1 + (!fired * 7919 mod 300)) tick)
  in
  for i = 1 to 64 do
    ignore (Sim.Engine.schedule engine ~at:i tick)
  done;
  (* The first stretch grows every array to its steady size. *)
  Sim.Engine.run engine ~until:100_000;
  let warm = !fired in
  let w0 = Gc.minor_words () in
  Sim.Engine.run_all engine;
  let words = Gc.minor_words () -. w0 in
  check bool "the steady stretch fired many events" true (!fired - warm > 40_000);
  check (Alcotest.float 0.) "minor words over the steady stretch" 0. words

let engine_fires_in_order () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.Engine.schedule engine ~at:30 (note "c"));
  ignore (Sim.Engine.schedule engine ~at:10 (note "a"));
  ignore (Sim.Engine.schedule engine ~at:20 (note "b"));
  Sim.Engine.run_all engine;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check int "clock at last event" 30 (Sim.Engine.now engine)

let engine_same_time_fifo () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule engine ~at:5 (fun () -> log := i :: !log))
  done;
  Sim.Engine.run_all engine;
  check (Alcotest.list int) "scheduling order preserved" (List.init 10 Fun.id) (List.rev !log)

let engine_until_bound () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Sim.Engine.schedule engine ~at:t (fun () -> fired := t :: !fired)))
    [ 5; 10; 15 ];
  Sim.Engine.run engine ~until:10;
  check (Alcotest.list int) "only <= until" [ 5; 10 ] (List.rev !fired);
  check int "one pending left" 1 (Sim.Engine.pending engine)

let engine_cancel () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  let id = Sim.Engine.schedule engine ~at:5 (fun () -> incr fired) in
  ignore (Sim.Engine.schedule engine ~at:6 (fun () -> incr fired));
  Sim.Engine.cancel engine id;
  Sim.Engine.run_all engine;
  check int "cancelled did not fire" 1 !fired;
  check int "processed excludes cancelled" 1 (Sim.Engine.processed engine)

let engine_rejects_past () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~at:10 (fun () -> ()));
  Sim.Engine.run_all engine;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule: at=5 is in the past (now=10)") (fun () ->
      ignore (Sim.Engine.schedule engine ~at:5 (fun () -> ())))

let engine_nested_scheduling () =
  let engine = Sim.Engine.create () in
  let hits = ref 0 in
  let rec chain n () =
    incr hits;
    if n > 0 then ignore (Sim.Engine.schedule_after engine ~delay:2 (chain (n - 1)))
  in
  ignore (Sim.Engine.schedule engine ~at:0 (chain 9));
  Sim.Engine.run_all engine;
  check int "chain length" 10 !hits;
  check int "clock advanced" 18 (Sim.Engine.now engine)

let engine_mass_cancel () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let ids =
    List.init 200 (fun i ->
        Sim.Engine.schedule engine ~at:(i + 1) (fun () -> fired := i :: !fired))
  in
  (* Cancel three quarters; the queue should reclaim the husks. *)
  List.iteri (fun i id -> if i mod 4 <> 0 then Sim.Engine.cancel engine id) ids;
  check bool "husks reclaimed from the event queue" true (Sim.Engine.pending engine < 200);
  (* Double-cancel and cancelling a fired event must be harmless. *)
  Sim.Engine.cancel engine (List.nth ids 1);
  Sim.Engine.run_all engine;
  Sim.Engine.cancel engine (List.nth ids 0);
  check (Alcotest.list int) "exactly the survivors fired, in order"
    (List.init 50 (fun k -> 4 * k))
    (List.rev !fired);
  check int "processed counts only real firings" 50 (Sim.Engine.processed engine);
  check int "clock stops at the last live event" 197 (Sim.Engine.now engine)

(* Regression: an owner that did not fit the event's 21-bit owner field
   used to be silently recorded as "ownerless". *)
let engine_rejects_unpackable_owner () =
  let engine = Sim.Engine.create () in
  let limit = (1 lsl 21) - 2 in
  ignore (Sim.Engine.schedule engine ~owner:limit ~at:1 ignore);
  ignore (Sim.Engine.schedule engine ~owner:(-1) ~at:1 ignore);
  List.iter
    (fun owner ->
      Alcotest.check_raises (Printf.sprintf "owner %d rejected" owner)
        (Invalid_argument
           (Printf.sprintf "Engine.schedule: owner=%d is outside the 21-bit owner field" owner))
        (fun () -> ignore (Sim.Engine.schedule engine ~owner ~at:1 ignore)))
    [ limit + 1; 1 lsl 40; -2 ];
  check int "only the valid events queued" 2 (Sim.Engine.pending engine)

let engine_infinity_noop () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~at:Sim.Time.infinity (fun () -> Alcotest.fail "fired"));
  Sim.Engine.run_all engine;
  check int "nothing pending" 0 (Sim.Engine.pending engine)

(* Regression: cancelling an event used to leave its action closure
   reachable from the queue husk until the tick came due; with long
   timeouts that pinned arbitrarily large captured state. The action must
   be collectable the moment it is cancelled. *)
let engine_cancel_releases_closure () =
  let engine = Sim.Engine.create () in
  let weak = Weak.create 1 in
  let id =
    (* Build the closure in a local scope so the only strong reference to
       its captured payload is the scheduled action itself. *)
    let payload = Bytes.make 4096 'x' in
    Weak.set weak 0 (Some payload);
    Sim.Engine.schedule engine ~at:1_000_000 (fun () -> ignore (Bytes.length payload))
  in
  (* A second pending event keeps the queue non-trivial so the husk is
     genuinely retained (no compaction at size 2). *)
  ignore (Sim.Engine.schedule engine ~at:2_000_000 (fun () -> ()));
  Sim.Engine.cancel engine id;
  Gc.full_major ();
  check bool "cancelled action is collectable before its tick" true (Weak.get weak 0 = None)

(* ------------------------ Infinity boundary ------------------------ *)

(* Regression: [Time.infinity] is [max_int], and an event inserted at
   that priority used to sit in the queue as a real event that could
   never fire (the wheel's find-min also uses max_int as its sentinel).
   The wheel must reject it outright, and so must the reference queue it
   is held to, while every finite tick up to [max_int - 1] stays
   representable. *)
let queue_rejects_infinity () =
  let w = Sim.Wheel.create () in
  let rejected = match Sim.Wheel.add w ~prio:max_int 1 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool "wheel rejects prio = max_int" true rejected;
  Sim.Wheel.add w ~prio:(max_int - 1) 2;
  check (Alcotest.option (Alcotest.pair int int)) "wheel pops max_int - 1"
    (Some (max_int - 1, 2))
    (wh_pop w);
  let r = Queue_reference.create ~dead:(fun _ -> false) () in
  let rejected = match Queue_reference.add r ~prio:max_int 1 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool "reference rejects prio = max_int" true rejected;
  Queue_reference.add r ~prio:(max_int - 1) 2;
  check (Alcotest.option (Alcotest.pair int int)) "reference pops max_int - 1"
    (Some (max_int - 1, 2))
    (ref_pop r)

(* [Time.add] saturates to infinity, so a huge relative delay is a
   well-defined "never": schedule_after must become the infinity no-op
   rather than overflowing into the past or inserting max_int. *)
let engine_saturated_delay_noop () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~at:10 (fun () -> ()));
  Sim.Engine.run_all engine;
  ignore (Sim.Engine.schedule_after engine ~delay:max_int (fun () -> Alcotest.fail "fired"));
  ignore (Sim.Engine.schedule_after engine ~delay:(max_int - 5) (fun () -> Alcotest.fail "fired"));
  check int "saturated delays are infinity no-ops" 0 (Sim.Engine.pending engine);
  Sim.Engine.run_all engine;
  check int "clock untouched" 10 (Sim.Engine.now engine)

(* ------------------------- Parallel steps ------------------------- *)

(* A shard-safe workload that exercises everything a parallel step must
   get right: nested scheduling, same-tick chains across owners
   (sub-rounds), cancellation of both a queued and an in-batch event,
   owner tags spread over processes. Every handler writes only its
   owner's cells, and each canceller shares its victim's owner, so it
   runs on the victim's shard at any shard count. The initial events are
   scheduled in descending owner order, so ranks and shard order
   disagree: a merge by shard instead of by rank reorders what fires
   at a tick.

   Each log entry is (tag, time, fire rank); [stepped.(owner)] records
   whether one of the owner's events fired inside a parallel step. *)
let staged_workload ?pool ?(shards = 1) () =
  let engine = Sim.Engine.create () in
  Option.iter (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards ~n:8) pool;
  let logs = Array.make 8 [] in
  let stepped = Array.make 8 false in
  let note owner tag () =
    let rank = Sim.Engine.fire_rank engine in
    if rank >= 0 then stepped.(owner) <- true;
    logs.(owner) <- (tag, Sim.Engine.now engine, rank) :: logs.(owner)
  in
  let rec chain owner n () =
    note owner (100 + n) ();
    if n > 0 then
      ignore (Sim.Engine.schedule_after engine ~owner ~delay:(1 + (n mod 3)) (chain owner (n - 1)))
  in
  for owner = 7 downto 0 do
    ignore (Sim.Engine.schedule engine ~owner ~at:(owner mod 3) (chain owner 5))
  done;
  (* A same-tick chain across owners: each link fires in the same step,
     a sub-round later. *)
  ignore
    (Sim.Engine.schedule engine ~owner:1 ~at:4 (fun () ->
         note 1 1 ();
         ignore
           (Sim.Engine.schedule engine ~owner:6 ~at:4 (fun () ->
                note 6 2 ();
                ignore (Sim.Engine.schedule engine ~owner:3 ~at:4 (note 3 3))))));
  (* Cancel a queued event... *)
  let victim = Sim.Engine.schedule engine ~owner:7 ~at:9 (note 7 666) in
  ignore (Sim.Engine.schedule engine ~owner:7 ~at:6 (fun () -> Sim.Engine.cancel engine victim));
  (* ...and a same-tick one later in the same batch: the canceller pops
     first (earlier schedule order), so the victim must not fire even
     though it was drained into the batch alongside it. *)
  let batch_victim = ref Sim.Engine.no_event in
  ignore
    (Sim.Engine.schedule engine ~owner:5 ~at:2 (fun () -> Sim.Engine.cancel engine !batch_victim));
  batch_victim := Sim.Engine.schedule engine ~owner:5 ~at:2 (note 5 667);
  let snapshot () =
    (Array.map List.rev logs, Sim.Engine.now engine, Sim.Engine.processed engine)
  in
  Sim.Engine.run engine ~until:12;
  let mid = snapshot () in
  Sim.Engine.run_all engine;
  ((mid, snapshot ()), Array.for_all Fun.id stepped)

(* The pop loop's view of a run: logs without fire ranks, which only a
   parallel step reports. *)
let without_ranks ((logs, now, processed), (logs', now', processed')) =
  let strip = Array.map (List.map (fun (tag, at, _) -> (tag, at))) in
  ((strip logs, now, processed), (strip logs', now', processed'))

(* A 1-domain pool fires the shards inline in index order, so the merge
   is checked deterministically; the 2-domain pool fires them
   concurrently. Every parallel run must equal the pop loop, and the
   ranks must not depend on the shard or domain count. *)
let engine_parallel_matches_pop_loop () =
  let reference, reference_stepped = staged_workload () in
  check bool "the pop loop runs no parallel step" false reference_stepped;
  let ranked = ref None in
  List.iter
    (fun (domains, shard_counts) ->
      Exec.Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun shards ->
              let r, stepped = staged_workload ~pool ~shards () in
              let what = Printf.sprintf "domains=%d shards=%d" domains shards in
              check bool (what ^ ": every owner fired in a parallel step") true stepped;
              check bool (what ^ ": equals the pop loop") true
                (without_ranks r = without_ranks reference);
              match !ranked with
              | None -> ranked := Some r
              | Some r0 -> check bool (what ^ ": same fire ranks") true (r = r0))
            shard_counts))
    [ (1, [ 2; 3; 8 ]); (2, [ 2; 3; 8 ]) ];
  (* Sanity on the reference itself. *)
  let _, (logs, _, _) = reference in
  check bool "cancelled queued event never fired" true
    (not (List.exists (fun (tag, _, _) -> tag = 666) logs.(7)));
  check bool "cancelled same-tick event never fired" true
    (not (List.exists (fun (tag, _, _) -> tag = 667) logs.(5)));
  check bool "the same-tick chain reached its third owner" true
    (List.exists (fun (tag, at, _) -> tag = 3 && at = 4) logs.(3))

let engine_staged_until_boundary () =
  (* One domain: the handlers share [fired], which is safe only when the
     shards fire inline. *)
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      let engine = Sim.Engine.create () in
      Sim.Engine.set_sharding engine ~pool ~shards:4 ~n:4;
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore
            (Sim.Engine.schedule engine ~owner:(t mod 4) ~at:t (fun () -> fired := t :: !fired)))
        [ 5; 10; 15 ];
      Sim.Engine.run engine ~until:10;
      check (Alcotest.list int) "staged run ~until fires only <= until" [ 5; 10 ]
        (List.rev !fired);
      check int "staged clock at last fired event" 10 (Sim.Engine.now engine);
      check int "later event still pending" 1 (Sim.Engine.pending engine))

(* Full tracing turns parallel steps off: a traced run on a pool is the
   pop loop's, record for record. *)
let engine_traced_pool_runs_pop_loop () =
  let capture pool shards =
    let recorder = Obs.Recorder.collecting () in
    let engine = Sim.Engine.create ~recorder () in
    Option.iter (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards ~n:4) pool;
    let rec tick owner n () =
      if n > 0 then begin
        check int "the pop loop reports no fire shard" (-1) (Sim.Engine.fire_shard engine);
        ignore (Sim.Engine.schedule_after engine ~owner ~delay:(1 + owner) (tick owner (n - 1)))
      end
    in
    for owner = 0 to 3 do
      ignore (Sim.Engine.schedule engine ~owner ~at:owner (tick owner 4))
    done;
    Sim.Engine.run_all engine;
    let buf = Buffer.create 256 in
    Obs.Recorder.iter recorder (fun r -> Obs.Jsonl.append buf r);
    Buffer.contents buf
  in
  let reference = capture None 1 in
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun s ->
          check Alcotest.string
            (Printf.sprintf "full trace identical on a pool at shards=%d" s)
            reference (capture (Some pool) s))
        [ 1; 2; 4 ])

(* Handles name one event, not its slot. A fired or cancelled event's
   slot is recycled by the next schedule; cancelling through the old
   handle must leave the new occupant alone, and so must cancelling a
   husk that compaction dropped. *)
let engine_stale_handles () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  let a = Sim.Engine.schedule engine ~at:1 (note "a") in
  Sim.Engine.run_all engine;
  let b = Sim.Engine.schedule engine ~at:2 (note "b") in
  Sim.Engine.cancel engine a;
  check int "cancelling a fired event leaves its slot's new event queued" 1
    (Sim.Engine.pending engine);
  (* A cancelled husk is popped and its slot reused. *)
  let c = Sim.Engine.schedule engine ~at:3 (note "c") in
  Sim.Engine.cancel engine c;
  Sim.Engine.cancel engine c;
  Sim.Engine.run engine ~until:3;
  let d = Sim.Engine.schedule engine ~at:4 (note "d") in
  Sim.Engine.cancel engine c;
  Sim.Engine.cancel engine b;
  (* Husks dropped by compaction release their slots too. *)
  let husks = List.init 40 (fun i -> Sim.Engine.schedule engine ~at:(10 + i) (note "husk")) in
  List.iter (Sim.Engine.cancel engine) husks;
  let compacted = Sim.Engine.pending engine in
  check bool "compaction dropped husks" true (compacted < 41);
  let fresh = List.init 40 (fun i -> Sim.Engine.schedule engine ~at:(10 + i) (note "fresh")) in
  List.iter (Sim.Engine.cancel engine) husks;
  (* The infinity handle names no event. *)
  let never = Sim.Engine.schedule engine ~at:Sim.Time.infinity (note "never") in
  Sim.Engine.cancel engine never;
  Sim.Engine.cancel engine never;
  check int "stale and infinity cancels left every new event queued" (compacted + 40)
    (Sim.Engine.pending engine);
  Sim.Engine.run_all engine;
  List.iter (Sim.Engine.cancel engine) (a :: b :: c :: d :: fresh);
  check (Alcotest.list Alcotest.string) "exactly the live events fired"
    ([ "a"; "b"; "d" ] @ List.init 40 (fun _ -> "fresh"))
    (List.rev !log);
  check int "processed" 43 (Sim.Engine.processed engine)

(* Inside a parallel step, worker domains take no slots and no ids: an
   event scheduled there gets both at the sub-round merge, and
   [schedule] returns a handle that names no event, which [cancel]
   rejects. The events still fire, at the same times as on the pop
   loop, whose handles cancel as usual. *)
let engine_parallel_step_handles () =
  let run ?pool () =
    let engine = Sim.Engine.create () in
    Option.iter (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards:2 ~n:2) pool;
    let inner = Array.make 2 None in
    let fired_at = Array.make 2 [] in
    for owner = 0 to 1 do
      ignore
        (Sim.Engine.schedule engine ~owner ~at:1 (fun () ->
             inner.(owner) <-
               Some
                 (Sim.Engine.schedule engine ~owner ~at:5 (fun () ->
                      fired_at.(owner) <- Sim.Engine.now engine :: fired_at.(owner)))))
    done;
    Sim.Engine.run engine ~until:1;
    check int "both inner events queued" 2 (Sim.Engine.pending engine);
    (engine, Array.map Option.get inner, fired_at)
  in
  let engine, fired_at =
    Exec.Pool.with_pool ~domains:2 (fun pool ->
        let engine, handles, fired_at = run ~pool () in
        Array.iter
          (fun h ->
            Alcotest.check_raises "a parallel step's handle is rejected"
              (Invalid_argument
                 "Engine.cancel: the event was scheduled inside a parallel step and has no handle")
              (fun () -> Sim.Engine.cancel engine h))
          handles;
        Sim.Engine.run_all engine;
        (engine, fired_at))
  in
  check int "both fired" 4 (Sim.Engine.processed engine);
  let pop_engine, pop_handles, pop_fired_at = run () in
  Sim.Engine.cancel pop_engine pop_handles.(1);
  Sim.Engine.run_all pop_engine;
  check (Alcotest.list int) "owner 0 fires at the same time" pop_fired_at.(0) fired_at.(0);
  check (Alcotest.list int) "a pop loop handle cancels" [] pop_fired_at.(1);
  check int "the cancelled one did not fire" 3 (Sim.Engine.processed pop_engine)

(* ------------------------------ Trace ------------------------------ *)

let trace_disabled_by_default () =
  let t = Sim.Trace.create () in
  check bool "disabled" false (Sim.Trace.enabled t);
  Sim.Trace.emit t ~time:1 ~subject:0 ~tag:"x" "dropped";
  check int "no records" 0 (List.length (Sim.Trace.records t))

let trace_collects () =
  let t = Sim.Trace.collecting () in
  Sim.Trace.emit t ~time:1 ~subject:0 ~tag:"a" "first";
  Sim.Trace.emitf t ~time:2 ~subject:1 ~tag:"b" "n=%d" 42;
  match Sim.Trace.records t with
  | [ r1; r2 ] ->
      check Alcotest.string "tag order" "a" r1.Sim.Trace.tag;
      check Alcotest.string "formatted detail" "n=42" r2.Sim.Trace.detail;
      check int "subject" 1 r2.Sim.Trace.subject
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let trace_sink () =
  let t = Sim.Trace.create () in
  let seen = ref [] in
  Sim.Trace.on_record t (fun r -> seen := r.Sim.Trace.tag :: !seen);
  Sim.Trace.emit t ~time:1 ~subject:0 ~tag:"hello" "";
  check (Alcotest.list Alcotest.string) "sink called" [ "hello" ] !seen

let suite =
  [
    Alcotest.test_case "time: saturating addition" `Quick time_add_saturates;
    Alcotest.test_case "time: predicates and printing" `Quick time_predicates;
    Alcotest.test_case "rng: determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng: draws allocate nothing" `Quick rng_draws_allocate_nothing;
    Alcotest.test_case "rng: stream matches the recorded outputs" `Quick rng_stream_recorded;
    Alcotest.test_case "rng: seed sensitivity" `Quick rng_seed_sensitivity;
    Alcotest.test_case "rng: split_named stable" `Quick rng_split_named_stable;
    Alcotest.test_case "rng: split_named distinct" `Quick rng_split_named_distinct;
    Alcotest.test_case "rng: shuffle permutes" `Quick rng_shuffle_permutes;
    Alcotest.test_case "rng: split independence" `Quick rng_split_independent;
    Alcotest.test_case "rng: pick covers the array" `Quick rng_pick_uniformish;
    Alcotest.test_case "rng: exponential positive" `Quick rng_exponential_positive;
    QCheck_alcotest.to_alcotest rng_ranges;
    QCheck_alcotest.to_alcotest rng_float_range;
    Alcotest.test_case "wheel: orders by priority" `Quick wheel_orders;
    Alcotest.test_case "wheel: FIFO ties" `Quick wheel_fifo_ties;
    Alcotest.test_case "wheel: interleaved ops" `Quick wheel_interleaved;
    Alcotest.test_case "wheel: empty pops" `Quick wheel_empty_pop;
    QCheck_alcotest.to_alcotest wheel_sorts;
    Alcotest.test_case "wheel: compacts when mostly dead" `Quick wheel_compacts_when_mostly_dead;
    Alcotest.test_case "wheel: forced compaction through note_dead" `Quick wheel_forced_compact;
    QCheck_alcotest.to_alcotest wheel_compaction_agrees;
    Alcotest.test_case "wheel: spans every level" `Quick wheel_multilevel_spans;
    Alcotest.test_case "wheel: rejects below the floor" `Quick wheel_floor_rejects_past;
    QCheck_alcotest.to_alcotest wheel_matches_reference;
    Alcotest.test_case "engine: fires in time order" `Quick engine_fires_in_order;
    Alcotest.test_case "engine: a no-op event allocates nothing once warm" `Quick
      engine_noop_event_allocation;
    Alcotest.test_case "engine: FIFO at equal times" `Quick engine_same_time_fifo;
    Alcotest.test_case "engine: run ~until" `Quick engine_until_bound;
    Alcotest.test_case "engine: cancellation" `Quick engine_cancel;
    Alcotest.test_case "engine: rejects past events" `Quick engine_rejects_past;
    Alcotest.test_case "engine: handlers schedule more events" `Quick engine_nested_scheduling;
    Alcotest.test_case "engine: mass cancellation compacts" `Quick engine_mass_cancel;
    Alcotest.test_case "engine: infinity is a no-op" `Quick engine_infinity_noop;
    Alcotest.test_case "engine: rejects owners outside the owner field" `Quick
      engine_rejects_unpackable_owner;
    Alcotest.test_case "queues: reject prio = infinity, keep max_int - 1" `Quick
      queue_rejects_infinity;
    Alcotest.test_case "engine: saturated delay is a no-op (wheel)" `Quick
      engine_saturated_delay_noop;
    Alcotest.test_case "engine: parallel steps = the pop loop" `Quick
      engine_parallel_matches_pop_loop;
    Alcotest.test_case "engine: staged run ~until boundary" `Quick engine_staged_until_boundary;
    Alcotest.test_case "engine: traced pool runs the pop loop" `Quick
      engine_traced_pool_runs_pop_loop;
    Alcotest.test_case "engine: cancel releases the closure (wheel)" `Quick
      engine_cancel_releases_closure;
    Alcotest.test_case "trace: disabled by default" `Quick trace_disabled_by_default;
    Alcotest.test_case "trace: collects records" `Quick trace_collects;
    Alcotest.test_case "trace: callback sink" `Quick trace_sink;
    QCheck_alcotest.to_alcotest wheel_matches_reference_sparse;
    Alcotest.test_case "engine: stale handles cancel nothing" `Quick engine_stale_handles;
    Alcotest.test_case "engine: a parallel step's schedule returns no handle" `Quick
      engine_parallel_step_handles;
  ]
