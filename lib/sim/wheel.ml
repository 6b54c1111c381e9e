(* Hierarchical timing wheel: 8 levels x 256 slots covering the full
   non-negative int tick range. An entry lives at the level of the
   highest byte in which its tick differs from [floor] (the last popped
   tick), in the slot named by that byte of the tick. Because placement
   only depends on bytes at or above the entry's level, and [floor] only
   crosses a level-l window boundary by cascading the slot that covers
   the crossing (which re-inserts its entries relative to the window
   start, strictly below level l), every entry's placement stays
   canonical with respect to the current floor. Two consequences the
   rest of the module relies on:

   - at each level, occupied slots sit at or above the floor's byte for
     that level, so a forward bitmap scan finds the frontier;
   - all entries for one tick are always co-located: a level-0 slot
     holds exactly one tick.

   Every slot list is also kept newest first (descending seq). [add]
   prepends the newest entry; a cascade only runs when every lower
   level is empty (the frontier search scans lowest level first), and
   it re-files the detached list oldest first, so each target slot
   again ends newest first; compaction unlinks without reordering.
   Draining one level-0 slot back to front therefore yields exactly the
   global FIFO order for that tick, with no sort, even though insertion
   happened across different floor epochs.

   Pops therefore come out in (tick, insertion) order, exactly as from
   a priority queue keyed on (prio, seq). The differential test in
   test/test_sim.ml holds the wheel to the plain reference queue in
   test/queue_reference.ml — same pop stream, husks included, and same
   sizes under the dead-husk accounting and compaction threshold below —
   for random interleavings of add/cancel/pop. *)

(* A queued entry is also the cell of its slot's list: [next] links the
   entries filed in one slot, so filing, cascading and draining relink
   an entry in place, and queuing one allocates only its node. [Nil]
   ends a list and fills unused buffer cells. *)
type 'a node = Nil | Node of { prio : int; seq : int; value : 'a; mutable next : 'a node }

let levels = 8
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let words_per_level = slots_per_level / 32

(* Below this size a rebuild costs more than the husks it reclaims. *)
let compaction_floor = 16

type 'a t = {
  mutable floor : int; (* last popped tick; no queued entry is below it *)
  slots : 'a node array; (* levels * 256 list heads, index = (level lsl 8) lor slot *)
  bitmap : int array; (* levels * 8 words, 32 occupancy bits per word *)
  (* Entries for the tick currently being fired, in FIFO order; active
     iff buf_head < buf_len. The array keeps its capacity across ticks,
     and consumed cells are reset to [Nil]. *)
  mutable buf : 'a node array;
  mutable buf_head : int;
  mutable buf_len : int;
  mutable current_tick : int; (* tick of the buffered entries *)
  mutable cached_min : int; (* min prio over wheel slots (buffer excluded); -1 = unknown *)
  mutable size : int;
  mutable next_seq : int;
  dead : ('a -> bool) option;
  mutable dead_count : int; (* upper bound on dead entries still queued *)
}

let create ?dead () =
  {
    floor = 0;
    slots = Array.make (levels * slots_per_level) Nil;
    bitmap = Array.make (levels * words_per_level) 0;
    buf = [||];
    buf_head = 0;
    buf_len = 0;
    current_tick = 0;
    cached_min = -1;
    size = 0;
    next_seq = 0;
    dead;
    dead_count = 0;
  }

let prio_of = function Node n -> n.prio | Nil -> max_int
let set_next nd nx = match nd with Node n -> n.next <- nx | Nil -> ()

let value_of = function
  | Node n -> n.value
  | Nil -> invalid_arg "Wheel: corrupt structure (empty buffer cell)"

let is_dead_node is_dead = function Node n -> is_dead n.value | Nil -> false

let set_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) lor (1 lsl (s land 31))

let clear_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) land lnot (1 lsl (s land 31))

let ctz32 x =
  let n = ref 0 in
  let x = ref x in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* Smallest occupied slot >= [from] at level [l], or -1. The scan is
   inclusive of [from]: mid-cascade the floor is a window start whose
   own slot may legitimately hold entries (ticks equal to the window
   start); in externally visible states the floor is a fired tick and
   its slots are empty, so inclusivity is harmless there. Runs on every
   frontier search, so the word scan is a toplevel recursion with its
   bounds as arguments: a local recursive function capturing them would
   allocate a closure per call. *)
let[@lint.hot] rec scan_words t base w word =
  if word <> 0 then (w lsl 5) lor ctz32 word
  else if w >= words_per_level - 1 then -1
  else scan_words t base (w + 1) t.bitmap.(base + w + 1)

let[@lint.hot] next_slot t l from =
  let base = l * words_per_level and w = from lsr 5 in
  scan_words t base w (t.bitmap.(base + w) land lnot ((1 lsl (from land 31)) - 1))

let level_of x =
  let rec go l x = if x < slots_per_level then l else go (l + 1) (x lsr slot_bits) in
  go 0 x

(* File a node at the head of its canonical slot's list. *)
let[@lint.hot] wheel_insert t nd =
  let prio = prio_of nd in
  let l = level_of (prio lxor t.floor) in
  let s = (prio lsr (l * slot_bits)) land slot_mask in
  let idx = (l lsl slot_bits) lor s in
  let head = t.slots.(idx) in
  (match head with Nil -> set_bit t l s | Node _ -> ());
  set_next nd head;
  t.slots.(idx) <- nd

(* Reverse a detached list in place, relinking its nodes. *)
let[@lint.hot] rec rev_onto acc nd =
  match nd with
  | Nil -> acc
  | Node n ->
      let rest = n.next in
      n.next <- acc;
      rev_onto nd rest

(* Cascade re-files a detached list's nodes in the order given; a
   toplevel recursion keeps the cascade path closure-free, and relinking
   allocates nothing. *)
let[@lint.hot] rec reinsert t nd =
  match nd with
  | Nil -> ()
  | Node n ->
      let rest = n.next in
      wheel_insert t nd;
      reinsert t rest

let buf_active t = t.buf_head < t.buf_len

let buf_reset t =
  t.buf_head <- 0;
  t.buf_len <- 0

let buf_reserve t cap =
  if cap > Array.length t.buf then begin
    let nbuf = Array.make (max cap (max 4 (2 * Array.length t.buf))) Nil in
    Array.blit t.buf 0 nbuf 0 t.buf_len;
    t.buf <- nbuf
  end

let buf_append t nd =
  buf_reserve t (t.buf_len + 1);
  t.buf.(t.buf_len) <- nd;
  t.buf_len <- t.buf_len + 1

let add t ~prio value =
  if prio < 0 then invalid_arg "Wheel.add: negative priority";
  (* [max_int] is [Sim.Time.infinity], the "never" sentinel ([find_min]
     also uses it as a fold seed); an entry at that tick would mean a
     saturated [Time.add] silently became a real event at the end of
     time. Every finite tick up to [max_int - 1] is representable. *)
  if prio = max_int then
    invalid_arg "Wheel.add: prio = max_int is Time.infinity (event would never fire)";
  if prio < t.floor then
    invalid_arg
      (Printf.sprintf "Wheel.add: prio=%d is below the last popped tick (%d)" prio t.floor);
  let nd = Node { prio; seq = t.next_seq; value; next = Nil } in
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  if buf_active t && prio = t.current_tick then buf_append t nd
  else if (not (buf_active t)) && prio = t.floor then begin
    t.current_tick <- t.floor;
    buf_append t nd
  end
  else begin
    wheel_insert t nd;
    if t.cached_min >= 0 && prio < t.cached_min then t.cached_min <- prio
  end

let rec list_length acc = function Nil -> acc | Node n -> list_length (acc + 1) n.next

(* Lay a detached level-0 list into the buffer back to front: the list
   is newest first, so the buffer comes out in FIFO order. *)
let rec fill_buf arr tick i nd =
  match nd with
  | Nil -> ()
  | Node n ->
      if n.prio <> tick then invalid_arg "Wheel: corrupt structure (two ticks in one slot)";
      let rest = n.next in
      n.next <- Nil;
      arr.(i) <- nd;
      fill_buf arr tick (i - 1) rest

(* Move the frontier level-0 slot into the FIFO buffer. *)
let drain_slot t s =
  let head = t.slots.(s) in
  t.slots.(s) <- Nil;
  clear_bit t 0 s;
  t.cached_min <- -1;
  let n = list_length 0 head in
  let tick = prio_of head in
  buf_reserve t n;
  fill_buf t.buf tick (n - 1) head;
  t.buf_head <- 0;
  t.buf_len <- n;
  t.current_tick <- tick

(* Distribute a level-l slot into lower levels. Re-anchoring the floor
   at the slot's window start is what keeps the redistributed entries
   canonically placed: each one shares bytes > l with the window start,
   so its new level is strictly below l and the advance loop makes
   progress. Raising the floor here is safe because everything still
   queued is at or beyond the window start, and the floor is observed
   externally only after [pop] restores it to a fired tick. *)
let[@lint.hot] cascade t l s =
  let idx = (l lsl slot_bits) lor s in
  let head = t.slots.(idx) in
  t.slots.(idx) <- Nil;
  clear_bit t l s;
  let above =
    if (l + 1) * slot_bits >= Sys.int_size - 1 then 0
    else t.floor land lnot ((1 lsl ((l + 1) * slot_bits)) - 1)
  in
  t.floor <- above lor (s lsl (l * slot_bits));
  reinsert t (rev_onto Nil head)

(* Find the frontier slot: levels are scanned lowest first because a
   level-l entry shares all bytes above l with the floor, so anything at
   a lower level is earlier. Within a level the first occupied slot at
   or after the floor's byte is earliest. Returned as the slot's flat
   index [(level lsl 8) lor slot], so finding it allocates no pair. *)
let[@lint.hot] rec frontier_from t l =
  if l >= levels then invalid_arg "Wheel: corrupt structure (size > 0 but no occupied slot)"
  else begin
    let s = next_slot t l ((t.floor lsr (l * slot_bits)) land slot_mask) in
    if s >= 0 then (l lsl slot_bits) lor s else frontier_from t (l + 1)
  end

let frontier t = frontier_from t 0

let rec advance t =
  let idx = frontier t in
  let l = idx lsr slot_bits and s = idx land slot_mask in
  if l = 0 then drain_slot t s
  else begin
    cascade t l s;
    advance t
  end

(* Min priority over wheel slots without mutating; the frontier slot at
   a level >= 1 spans a range of ticks, hence the walk. *)
let rec list_min acc = function
  | Nil -> acc
  | Node n -> list_min (if n.prio < acc then n.prio else acc) n.next

let find_min t = list_min max_int t.slots.(frontier t)

let min_prio t =
  if buf_active t then t.current_tick
  else if t.size = 0 then max_int
  else begin
    if t.cached_min < 0 then t.cached_min <- find_min t;
    t.cached_min
  end

let[@lint.hot] rec pop t =
  if buf_active t then begin
    let nd = t.buf.(t.buf_head) in
    t.buf.(t.buf_head) <- Nil;
    t.buf_head <- t.buf_head + 1;
    if t.buf_head = t.buf_len then buf_reset t;
    t.floor <- t.current_tick;
    t.size <- t.size - 1;
    let value = value_of nd in
    (match t.dead with
    | Some is_dead when is_dead value -> t.dead_count <- max 0 (t.dead_count - 1)
    | _ -> ());
    value
  end
  else if t.size = 0 then invalid_arg "Wheel.pop: empty queue"
  else begin
    advance t;
    pop t
  end

(* Unlink dead nodes from a list, keeping the survivors' order; returns
   the new head and adds the survivors to [live]. Tail-recursive: one
   slot may hold a large share of the queue. *)
let rec first_live is_dead nd =
  match nd with
  | Nil -> Nil
  | Node n -> if is_dead n.value then first_live is_dead n.next else nd

let rec link_live is_dead live kept =
  match kept with
  | Nil -> ()
  | Node n ->
      incr live;
      let nx = first_live is_dead n.next in
      n.next <- nx;
      link_live is_dead live nx

let filter_live is_dead live head =
  let head = first_live is_dead head in
  link_live is_dead live head;
  head

let compact t =
  match t.dead with
  | None -> ()
  | Some is_dead ->
      let live = ref 0 in
      for idx = 0 to (levels * slots_per_level) - 1 do
        match t.slots.(idx) with
        | Nil -> ()
        | head ->
            let kept = filter_live is_dead live head in
            t.slots.(idx) <- kept;
            (match kept with
            | Nil -> clear_bit t (idx lsr slot_bits) (idx land slot_mask)
            | Node _ -> ())
      done;
      if buf_active t then begin
        let j = ref 0 in
        for i = t.buf_head to t.buf_len - 1 do
          let nd = t.buf.(i) in
          t.buf.(i) <- Nil;
          if not (is_dead_node is_dead nd) then begin
            t.buf.(!j) <- nd;
            incr j
          end
        done;
        t.buf_head <- 0;
        t.buf_len <- !j;
        live := !live + !j
      end;
      t.size <- !live;
      t.dead_count <- 0;
      t.cached_min <- -1

let note_dead t =
  t.dead_count <- min t.size (t.dead_count + 1);
  if t.size >= compaction_floor && 2 * t.dead_count > t.size then compact t

let size t = t.size
let floor t = t.floor
