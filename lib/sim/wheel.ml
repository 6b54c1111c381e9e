(* Hierarchical timing wheel: 8 levels x 256 slots covering the full
   non-negative int tick range. An entry lives at the level of the
   highest byte in which its tick differs from [floor] (the last popped
   tick), in the slot named by that byte of the tick. Because placement
   only depends on bytes at or above the entry's level, and [floor] only
   crosses a level-l window boundary by cascading the slot that covers
   the crossing (which re-inserts its entries relative to the window
   start, strictly below level l), every entry's placement stays
   canonical with respect to the current floor. Three consequences the
   rest of the module relies on:

   - at each level, occupied slots sit at or above the floor's byte for
     that level, so a forward bitmap scan finds the frontier, and the
     frontier is the occupied slot with the smallest flat index
     [(level lsl 8) lor slot];
   - all entries for one tick are always co-located: a level-0 slot
     holds exactly one tick;
   - a level-0 entry shares every byte above byte 0 with the floor, so
     a level-0 slot's tick is the floor with its low byte replaced.

   Every slot list is also kept newest first. [add] prepends the newest
   entry; a cascade only runs when every lower level is empty (the
   frontier search scans lowest level first), and it re-files the
   detached list oldest first, so each target slot again ends newest
   first; compaction unlinks without reordering. Draining one level-0
   slot back to front therefore yields exactly the global FIFO order
   for that tick, with no sort and no sequence number, even though
   insertion happened across different floor epochs.

   Pops therefore come out in (tick, insertion) order, exactly as from
   a priority queue keyed on (prio, insertion order). The differential
   tests in test/test_sim.ml hold the wheel to the plain reference
   queue in test/queue_reference.ml — same pop stream, husks included,
   and same sizes under the dead-husk accounting and compaction
   threshold below — for random interleavings of add/cancel/pop, dense
   and sparse.

   Storage holds no pointers. An entry is an index into the flat [prio],
   [payload] and [next] int arrays; [next] links the entries of one slot
   list, and links the free entries into a free list. List heads and
   the fire buffer hold entry indices, [nil] ends a list. Filing,
   cascading, draining and compacting are therefore plain int stores:
   none of them allocates, and none goes through the GC write barrier.
   The arrays grow by doubling and recycle freed entries, so a wheel in
   steady state allocates nothing. *)

let levels = 8
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let words_per_level = slots_per_level / 32
let nil = -1

(* Below this size a rebuild costs more than the husks it reclaims. *)
let compaction_floor = 16

type t = {
  mutable floor : int; (* last popped tick; no queued entry is below it *)
  (* List heads, index = (level lsl 8) lor slot. Covers the levels used
     so far: a world whose events stay within 256 ticks of the floor
     never allocates the heads of levels 1-7. *)
  mutable heads : int array;
  bitmap : int array; (* levels * 8 words, 32 occupancy bits per word *)
  (* Entry cells. Entries [0, used) have been handed out at least once;
     [free] heads the list (through [next]) of those released since. *)
  mutable prio : int array;
  mutable payload : int array;
  mutable next : int array;
  mutable used : int;
  mutable free : int;
  (* Entries for the tick currently being fired, in FIFO order; active
     iff buf_head < buf_len. The array keeps its capacity across ticks. *)
  mutable buf : int array;
  mutable buf_head : int;
  mutable buf_len : int;
  mutable current_tick : int; (* tick of the buffered entries *)
  (* Frontier cache, valid iff [cached_min >= 0]: the frontier slot's
     flat index and the minimum priority queued in the wheel's slots
     (buffer excluded). [min_prio] fills it and the [pop] that follows
     reuses it, so a tick costs one frontier search, not two. *)
  mutable cached_min : int;
  mutable cached_frontier : int;
  mutable size : int;
  dead : (int -> bool) option;
  mutable dead_count : int; (* upper bound on dead entries still queued *)
}

let create ?dead () =
  {
    floor = 0;
    heads = [||];
    bitmap = Array.make (levels * words_per_level) 0;
    prio = [||];
    payload = [||];
    next = [||];
    used = 0;
    free = nil;
    buf = [||];
    buf_head = 0;
    buf_len = 0;
    current_tick = 0;
    cached_min = -1;
    cached_frontier = 0;
    size = 0;
    dead;
    dead_count = 0;
  }

let grow arr cap =
  let na = Array.make cap 0 in
  Array.blit arr 0 na 0 (Array.length arr);
  na

(* Hand out an entry cell: a released one if any, else the next unused
   one, doubling the cell arrays when they are full. *)
let[@lint.hot] alloc t =
  let e = t.free in
  if e <> nil then begin
    t.free <- t.next.(e);
    e
  end
  else begin
    let e = t.used in
    if e = Array.length t.prio then begin
      let cap = max 16 (2 * e) in
      t.prio <- grow t.prio cap;
      t.payload <- grow t.payload cap;
      t.next <- grow t.next cap
    end;
    t.used <- e + 1;
    e
  end

let[@lint.hot] release t e =
  t.next.(e) <- t.free;
  t.free <- e

let set_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) lor (1 lsl (s land 31))

let clear_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) land lnot (1 lsl (s land 31))

(* Count trailing zeros of a non-zero 32-bit word without branches:
   [x land (-x)] isolates the lowest set bit, and multiplying a power of
   two by the de Bruijn constant 0x077CB531 puts a distinct 5-bit
   pattern in bits 27..31, which the table maps back to the bit's
   position. *)
let debruijn_positions =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@lint.hot] ctz32 x =
  Char.code debruijn_positions.[(((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27]

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

let[@lint.hot] rec level_of l x =
  if x < slots_per_level then l else level_of (l + 1) (x lsr slot_bits)

(* Heads for levels [0, l] exist. Grown a level group at a time, and
   only when an entry is first filed at a level no earlier entry used. *)
let ensure_level t l =
  let need = (l + 1) * slots_per_level in
  if need > Array.length t.heads then begin
    let nh = Array.make need nil in
    Array.blit t.heads 0 nh 0 (Array.length t.heads);
    t.heads <- nh
  end

(* File entry [e] (priority [p]) at the head of its canonical slot's
   list; returns the slot's flat index. *)
let[@lint.hot] wheel_insert t e p =
  let l = level_of 0 (p lxor t.floor) in
  let s = (p lsr (l * slot_bits)) land slot_mask in
  let idx = (l lsl slot_bits) lor s in
  if idx >= Array.length t.heads then ensure_level t l;
  let head = t.heads.(idx) in
  if head = nil then set_bit t l s;
  t.next.(e) <- head;
  t.heads.(idx) <- e;
  idx

(* Reverse a detached list in place. *)
let[@lint.hot] rec rev_onto t acc e =
  if e = nil then acc
  else begin
    let rest = t.next.(e) in
    t.next.(e) <- acc;
    rev_onto t e rest
  end

(* Cascade re-files a detached list's entries in the order given. *)
let[@lint.hot] rec reinsert t e =
  if e <> nil then begin
    let rest = t.next.(e) in
    ignore (wheel_insert t e t.prio.(e) : int);
    reinsert t rest
  end

let buf_active t = t.buf_head < t.buf_len

let buf_reset t =
  t.buf_head <- 0;
  t.buf_len <- 0

let buf_reserve t cap =
  if cap > Array.length t.buf then begin
    let nbuf = Array.make (max cap (max 4 (2 * Array.length t.buf))) nil in
    Array.blit t.buf 0 nbuf 0 t.buf_len;
    t.buf <- nbuf
  end

let buf_append t e =
  buf_reserve t (t.buf_len + 1);
  t.buf.(t.buf_len) <- e;
  t.buf_len <- t.buf_len + 1

(* Cold error paths, kept out of [add] so its body stays allocation-free. *)
let out_of_range prio =
  if prio < 0 then invalid_arg "Wheel.add: negative priority"
  else invalid_arg "Wheel.add: prio = max_int is Time.infinity (event would never fire)"

let below_floor prio floor =
  invalid_arg (Printf.sprintf "Wheel.add: prio=%d is below the last popped tick (%d)" prio floor)

let[@lint.hot] add t ~prio value =
  (* [max_int] is [Sim.Time.infinity], the "never" sentinel ([min_prio]
     also answers it for an empty wheel); an entry at that tick would
     mean a saturated [Time.add] silently became a real event at the
     end of time. Every finite tick up to [max_int - 1] is
     representable. *)
  if prio < 0 || prio = max_int then out_of_range prio;
  if prio < t.floor then below_floor prio t.floor;
  let e = alloc t in
  t.prio.(e) <- prio;
  t.payload.(e) <- value;
  t.size <- t.size + 1;
  if buf_active t && prio = t.current_tick then buf_append t e
  else if (not (buf_active t)) && prio = t.floor then begin
    t.current_tick <- prio;
    buf_append t e
  end
  else begin
    let idx = wheel_insert t e prio in
    (* Keep the frontier cache exact. A slot below the cached frontier
       was empty until now, so [prio] is its whole content; an entry in
       the frontier slot may lower its minimum; an entry in a later
       slot is above the minimum. *)
    if t.cached_min >= 0 then
      if idx < t.cached_frontier then begin
        t.cached_frontier <- idx;
        t.cached_min <- prio
      end
      else if idx = t.cached_frontier && prio < t.cached_min then t.cached_min <- prio
  end

let rec list_length t acc e = if e = nil then acc else list_length t (acc + 1) t.next.(e)

(* Lay a detached level-0 list into the buffer back to front: the list
   is newest first, so the buffer comes out in FIFO order. *)
let rec fill_buf t tick i e =
  if e <> nil then begin
    if t.prio.(e) <> tick then invalid_arg "Wheel: corrupt structure (two ticks in one slot)";
    t.buf.(i) <- e;
    fill_buf t tick (i - 1) t.next.(e)
  end

(* Move the frontier level-0 slot into the FIFO buffer. *)
let drain_slot t s =
  let head = t.heads.(s) in
  t.heads.(s) <- nil;
  clear_bit t 0 s;
  t.cached_min <- -1;
  let n = list_length t 0 head in
  let tick = t.prio.(head) in
  buf_reserve t n;
  fill_buf t tick (n - 1) head;
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
  let head = t.heads.(idx) in
  t.heads.(idx) <- nil;
  clear_bit t l s;
  t.cached_min <- -1;
  let above =
    if (l + 1) * slot_bits >= Sys.int_size - 1 then 0
    else t.floor land lnot ((1 lsl ((l + 1) * slot_bits)) - 1)
  in
  t.floor <- above lor (s lsl (l * slot_bits));
  reinsert t (rev_onto t nil head)

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

(* Min priority over a slot list; only needed for a frontier slot at a
   level >= 1, which spans a range of ticks. *)
let[@lint.hot] rec list_min t acc e =
  if e = nil then acc
  else list_min t (let p = t.prio.(e) in if p < acc then p else acc) t.next.(e)

(* Fill the frontier cache. Reads the wheel, never advances it. *)
let[@lint.hot] find_min t =
  let idx = frontier_from t 0 in
  t.cached_frontier <- idx;
  t.cached_min <-
    (if idx < slots_per_level then (t.floor land lnot slot_mask) lor idx
     else list_min t max_int t.heads.(idx))

let[@lint.hot] rec advance t idx =
  if idx < slots_per_level then drain_slot t idx
  else begin
    cascade t (idx lsr slot_bits) (idx land slot_mask);
    advance t (frontier_from t 0)
  end

let[@lint.hot] min_prio t =
  if buf_active t then t.current_tick
  else if t.size = 0 then max_int
  else begin
    if t.cached_min < 0 then find_min t;
    t.cached_min
  end

(* Remove entry [e] from the queue and hand back its payload; the
   floor moves to its tick. *)
let[@lint.hot] take t e =
  t.floor <- t.prio.(e);
  t.size <- t.size - 1;
  let value = t.payload.(e) in
  release t e;
  value

let[@lint.hot] rec pop t =
  if buf_active t then begin
    let e = t.buf.(t.buf_head) in
    t.buf_head <- t.buf_head + 1;
    if t.buf_head = t.buf_len then buf_reset t;
    take t e
  end
  else if t.size = 0 then invalid_arg "Wheel.pop: empty queue"
  else begin
    let idx = if t.cached_min >= 0 then t.cached_frontier else frontier_from t 0 in
    let head = if idx < slots_per_level then t.heads.(idx) else nil in
    if head <> nil && t.next.(head) = nil then begin
      (* A lone entry at the frontier tick (the usual case in a sparse
         wheel) is taken straight from its slot, bypassing the buffer. *)
      t.heads.(idx) <- nil;
      clear_bit t 0 idx;
      t.cached_min <- -1;
      take t head
    end
    else begin
      advance t idx;
      pop t
    end
  end

(* Unlink dead entries from a list, keeping the survivors' order and
   releasing the dead ones; returns the new head. Tail-recursive: one
   slot may hold a large share of the queue. *)
let rec first_live t is_dead e =
  if e = nil then nil
  else if is_dead t.payload.(e) then begin
    let rest = t.next.(e) in
    release t e;
    first_live t is_dead rest
  end
  else e

let rec link_live t is_dead live kept =
  if kept <> nil then begin
    incr live;
    let nx = first_live t is_dead t.next.(kept) in
    t.next.(kept) <- nx;
    link_live t is_dead live nx
  end

let compact t =
  match t.dead with
  | None -> ()
  | Some is_dead ->
      let live = ref 0 in
      for idx = 0 to Array.length t.heads - 1 do
        let head = t.heads.(idx) in
        if head <> nil then begin
          let kept = first_live t is_dead head in
          link_live t is_dead live kept;
          t.heads.(idx) <- kept;
          if kept = nil then clear_bit t (idx lsr slot_bits) (idx land slot_mask)
        end
      done;
      if buf_active t then begin
        let j = ref 0 in
        for i = t.buf_head to t.buf_len - 1 do
          let e = t.buf.(i) in
          if is_dead t.payload.(e) then release t e
          else begin
            t.buf.(!j) <- e;
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

let note_popped_dead t = t.dead_count <- max 0 (t.dead_count - 1)
let size t = t.size
let floor t = t.floor
