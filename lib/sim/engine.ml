(* Events live in a slab: struct-of-arrays storage indexed by a slot
   number, which is also the payload the event's wheel entry carries.
   [state] packs the event id, the owning process and the lifecycle
   flags — bit 0 = cancelled, bit 1 = fired, bits 2..22 = owner + 1
   (0 = ownerless), bits 23.. = id. The owner is what sharded stepping
   partitions on; [schedule] rejects owners outside [-1, owner_limit]
   rather than let one overflow the field. [action] holds the closure,
   [noop] when the slot is idle: cancel and fire drop the closure, since
   a cancelled husk may sit in the queue until its tick is reached and
   must not retain the closure's environment for all that time.

   Scheduling takes a slot from the [free] stack (or the next unused
   one) and writes one int and one closure pointer; the closure store is
   the only pointer write per event, and nothing is allocated once the
   arrays have grown to the run's peak of pending events. A slot is
   released when its event fires, when its husk is popped, or when
   compaction drops its husk; only the submitting domain takes or
   releases slots. *)
type slab = {
  mutable state : int array;
  mutable action : (unit -> unit) array;
  mutable free : int array; (* released slots, a stack of [nfree] *)
  mutable nfree : int;
  mutable used : int; (* slots [0, used) have been handed out *)
}

let cancelled_bit = 1
let fired_bit = 2
let owner_bits = 21
let owner_mask = (1 lsl owner_bits) - 1
let owner_limit = owner_mask - 1
let id_shift = 2 + owner_bits
let id_of_state st = st lsr id_shift
let owner_of_state st = ((st lsr 2) land owner_mask) - 1
let pack_owner owner = (owner + 1) lsl 2
let noop () = ()

(* A handle is an immediate: the event's slot in the low
   [handle_slot_bits] bits and its id, modulo 2^36, above them. It stays
   valid after the event fires or is cancelled and its slot is reused:
   [cancel] acts only while the slot still holds that id and neither
   flag is set. (Two events of one slot share a handle only when 2^36
   events are scheduled between them, and only if the first handle is
   still held then.) [no_event], what scheduling at infinity returns,
   names no slot; [unnamed] is what a parallel step returns (see
   [schedule]). *)
type event_id = int

let handle_slot_bits = 26
let max_slots = 1 lsl handle_slot_bits
let handle_slot_mask = max_slots - 1
let handle_id_mask = (1 lsl (Sys.int_size - 1 - handle_slot_bits)) - 1
let handle id slot = ((id land handle_id_mask) lsl handle_slot_bits) lor slot
let no_event = -1
let unnamed = -2

(* Events scheduled while a parallel step's batch is firing wait in
   per-shard staging vectors of (at, rank, owner) triples, the closure
   beside them in [sf], until the sub-round's merge: worker domains take
   no slots. [rank] is the pop rank of the event that scheduled them, so
   (rank, per-shard program order) is the order the pop loop would have
   scheduled them in, whatever the shard count. *)
type svec = { mutable sv : int array; mutable sn : int; mutable sf : (unit -> unit) array }

(* Per-domain fire context: which shard is firing and the rank of the
   event being fired. Domain-local so the parallel fire phase can route
   nested [schedule]/[cancel] calls without touching shared state. *)
type fire_ctx = { mutable rank : int; mutable shard : int }

type t = {
  mutable clock : Time.t;
  queue : Wheel.t;
  slab : slab;
  mutable processed : int;
  mutable next_id : int;
  recorder : Obs.Recorder.t;
  tracing : bool ref; (* the recorder's live full-tracing flag *)
  (* Parallel stepping; [shards] is 0 until a pool is attached. *)
  mutable shards : int;
  mutable shard_n : int; (* process count the partition covers *)
  mutable pool : Exec.Pool.t option;
  mutable staging : svec array; (* per shard, reused across steps *)
  mutable stage_cur : int array; (* per shard: merge cursor *)
  mutable deferred_dead : int array; (* per shard: husk notes owed to the queue *)
  mutable in_step : bool;
  mutable base_rank : int; (* rank of the current sub-round's first event *)
  mutable batch : int array; (* slots of the tick's events in pop order *)
  mutable batch_len : int;
  mutable pb_slot : int array; (* parallel scatter: batch grouped by shard *)
  mutable pb_rank : int array;
  mutable pb_off : int array; (* shard s owns pb indices [off.(s), off.(s+1)) *)
  mutable pb_cur : int array;
  mutable shard_fired : int array;
  mutable step_hooks : (unit -> unit) list; (* run after each sub-round merge *)
  ctx_key : fire_ctx Domain.DLS.key;
}

let grow_ints arr cap fill =
  let na = Array.make cap fill in
  Array.blit arr 0 na 0 (Array.length arr);
  na

let grow_slab s =
  let len = Array.length s.state in
  if len >= max_slots then
    invalid_arg
      (Printf.sprintf "Engine.schedule: more than %d events pending (the handle's slot field)"
         max_slots);
  let cap = min max_slots (max 16 (2 * len)) in
  s.state <- grow_ints s.state cap 0;
  s.free <- grow_ints s.free cap 0;
  let na = Array.make cap noop in
  Array.blit s.action 0 na 0 len;
  s.action <- na

let[@lint.hot] take_slot s =
  if s.nfree > 0 then begin
    s.nfree <- s.nfree - 1;
    s.free.(s.nfree)
  end
  else begin
    let slot = s.used in
    if slot = Array.length s.state then grow_slab s;
    s.used <- slot + 1;
    slot
  end

(* [free] has room for every slot ever handed out. *)
let[@lint.hot] release_slot s slot =
  s.free.(s.nfree) <- slot;
  s.nfree <- s.nfree + 1

let create ?recorder () =
  let recorder = match recorder with Some r -> r | None -> Obs.Recorder.create () in
  let slab = { state = [||]; action = [||]; free = [||]; nfree = 0; used = 0 } in
  (* Compaction drops exactly the husks this answers true for, so their
     slots are released here. *)
  let reclaim slot =
    slab.state.(slot) land cancelled_bit <> 0
    && begin
         release_slot slab slot;
         true
       end
  in
  {
    clock = Time.zero;
    queue = Wheel.create ~dead:reclaim ();
    slab;
    processed = 0;
    next_id = 0;
    recorder;
    tracing = Obs.Recorder.tracing_flag recorder;
    shards = 0;
    shard_n = 0;
    pool = None;
    staging = [||];
    stage_cur = [||];
    deferred_dead = [||];
    in_step = false;
    base_rank = 0;
    batch = [||];
    batch_len = 0;
    pb_slot = [||];
    pb_rank = [||];
    pb_off = [||];
    pb_cur = [||];
    shard_fired = [||];
    step_hooks = [];
    ctx_key = Domain.DLS.new_key (fun () -> { rank = -1; shard = -1 });
  }

let now t = t.clock
let recorder t = t.recorder

let set_sharding t ~pool ~shards ~n =
  if t.in_step then invalid_arg "Engine.set_sharding: cannot reconfigure inside a step";
  if n <= 0 then invalid_arg "Engine.set_sharding: n must be positive";
  if n > owner_limit then
    invalid_arg
      (Printf.sprintf "Engine.set_sharding: n=%d exceeds the %d-bit owner field" n owner_bits);
  if shards < 1 then invalid_arg "Engine.set_sharding: shards must be >= 1";
  let shards = min shards n in
  t.shards <- shards;
  t.shard_n <- n;
  t.pool <- Some pool;
  t.staging <- Array.init shards (fun _ -> { sv = [||]; sn = 0; sf = [||] });
  t.stage_cur <- Array.make shards 0;
  t.deferred_dead <- Array.make shards 0;
  t.pb_off <- Array.make (shards + 1) 0;
  t.pb_cur <- Array.make shards 0;
  t.shard_fired <- Array.make shards 0

let shards t = t.shards

(* Contiguous partition of [0, shard_n) into [shards] ranges; ownerless
   events (and any owner outside the partition) fall into shard 0. *)
let shard_of t owner =
  if t.shards <= 1 || owner <= 0 then 0
  else
    let o = if owner >= t.shard_n then t.shard_n - 1 else owner in
    o * t.shards / t.shard_n

let fire_rank t = (Domain.DLS.get t.ctx_key).rank
let fire_shard t = (Domain.DLS.get t.ctx_key).shard
let add_step_hook t f = t.step_hooks <- t.step_hooks @ [ f ]

(* Append an (at, rank, owner) triple and its closure to a shard's
   staging vector. *)
let stage t shard at rank owner f =
  let v = t.staging.(shard) in
  let i = v.sn in
  if (3 * i) + 3 > Array.length v.sv then v.sv <- grow_ints v.sv (max 24 (2 * Array.length v.sv)) 0;
  v.sv.(3 * i) <- at;
  v.sv.((3 * i) + 1) <- rank;
  v.sv.((3 * i) + 2) <- owner;
  v.sn <- i + 1;
  if i >= Array.length v.sf then begin
    let na = Array.make (max 8 (2 * Array.length v.sf)) noop in
    Array.blit v.sf 0 na 0 (Array.length v.sf);
    v.sf <- na
  end;
  v.sf.(i) <- f

(* Cold error paths, kept out of [schedule] so its body stays
   allocation-free. *)
let bad_owner owner =
  invalid_arg
    (Printf.sprintf "Engine.schedule: owner=%d is outside the %d-bit owner field" owner owner_bits)

let in_the_past at now =
  invalid_arg (Printf.sprintf "Engine.schedule: at=%d is in the past (now=%d)" at now)

(* A new event in a fresh slot, with the next id. *)
let[@lint.hot] new_event t owner f =
  let s = t.slab in
  let slot = take_slot s in
  s.state.(slot) <- (t.next_id lsl id_shift) lor pack_owner owner;
  s.action.(slot) <- f;
  t.next_id <- t.next_id + 1;
  slot

(* The body of [schedule], apart so that the hot-path lint sees it: the
   optional argument makes [schedule] itself a nest of functions. *)
let[@lint.hot] schedule_owned t owner at f =
  if owner < -1 || owner > owner_limit then bad_owner owner;
  if at = Time.infinity then no_event
  else begin
    if at < t.clock then in_the_past at t.clock;
    if not t.in_step then begin
      let slot = new_event t owner f in
      Wheel.add t.queue ~prio:at slot;
      (* Call-site guard: the emission call is skipped entirely when full
         tracing is off, keeping the hot path at one load + branch. *)
      if !(t.tracing) then Obs.Recorder.sched t.recorder ~time:t.clock ~id:(t.next_id - 1) ~at;
      handle (t.next_id - 1) slot
    end
    else begin
      (* Parallel step: the new event goes into the firing shard's
         staging vector. Worker domains must not take slots or ids, so
         both are assigned at the sub-round's merge, in canonical
         (rank, program-order) order, which lands on the ids the pop loop
         would have given. The event has no handle yet, so the caller
         gets [unnamed]. *)
      let ctx = Domain.DLS.get t.ctx_key in
      stage t (if ctx.shard >= 0 then ctx.shard else 0) at ctx.rank owner f;
      unnamed
    end
  end

let schedule t ?(owner = -1) ~at f = schedule_owned t owner at f
let schedule_after t ?owner ~delay f = schedule t ?owner ~at:(Time.add t.clock delay) f

let cancel t h =
  if h >= 0 then begin
    let s = t.slab in
    let slot = h land handle_slot_mask in
    let st = if slot < s.used then s.state.(slot) else fired_bit in
    (* Act only on a pending event that is still the one the handle
       names: a fired or cancelled event, and any later occupant of its
       slot, are left alone. Each still-queued event is thus counted
       dead at most once, as the queue's husk accounting requires. *)
    if
      st land (cancelled_bit lor fired_bit) = 0
      && id_of_state st land handle_id_mask = h lsr handle_slot_bits
    then begin
      s.state.(slot) <- st lor cancelled_bit;
      (* The husk stays queued until popped or compacted away; drop the
         closure now so it doesn't pin its environment until then. *)
      s.action.(slot) <- noop;
      if t.in_step then begin
        (* Deferred husk note: mid-step the event may live in the
           current batch rather than the queue, and the queue must not be
           touched from worker domains. Settled at the sub-round merge. *)
        let ctx = Domain.DLS.get t.ctx_key in
        let sh = if ctx.shard >= 0 then ctx.shard else 0 in
        t.deferred_dead.(sh) <- t.deferred_dead.(sh) + 1
      end
      else Wheel.note_dead t.queue;
      if !(t.tracing) then Obs.Recorder.cancel t.recorder ~time:t.clock ~id:(id_of_state st)
    end
  end
  else if h = unnamed then
    invalid_arg "Engine.cancel: the event was scheduled inside a parallel step and has no handle"

(* Fire one popped event: mark it fired and release its slot, and unless
   it was cancelled, advance the clock and run its action. *)
let[@lint.hot] fire_slot t at slot =
  let s = t.slab in
  let st = s.state.(slot) in
  s.state.(slot) <- st lor fired_bit;
  release_slot s slot;
  if st land cancelled_bit = 0 then begin
    t.clock <- at;
    t.processed <- t.processed + 1;
    if !(t.tracing) then Obs.Recorder.fire t.recorder ~time:at ~id:(id_of_state st);
    let action = s.action.(slot) in
    (* Release the closure before running it: the slot may stay idle
       long after the event fires. *)
    s.action.(slot) <- noop;
    action ()
  end

(* Pop the next event's slot, settling the husk count if it is dead. *)
let[@lint.hot] pop_slot t =
  let slot = Wheel.pop t.queue in
  if t.slab.state.(slot) land cancelled_bit <> 0 then Wheel.note_popped_dead t.queue;
  slot

(* ---- Parallel stepping ----------------------------------------------- *)

let batch_push t slot =
  if t.batch_len >= Array.length t.batch then
    t.batch <- grow_ints t.batch (max 16 (2 * Array.length t.batch)) 0;
  t.batch.(t.batch_len) <- slot;
  t.batch_len <- t.batch_len + 1

(* Fire a batch: group it by shard (preserving pop order within each
   shard) and fire the shards on the pool. Worker domains never touch
   the queue, the recorder, [next_id] or the free slots — they write
   only their own events' slab cells and their own shard's staging
   vector. The batch's slots are released after the barrier. *)
let fire_batch_par t tick pool =
  let s = t.shards in
  let slab = t.slab in
  let off = t.pb_off and cur = t.pb_cur in
  Array.fill off 0 (s + 1) 0;
  for r = 0 to t.batch_len - 1 do
    let sh = shard_of t (owner_of_state slab.state.(t.batch.(r))) in
    off.(sh + 1) <- off.(sh + 1) + 1
  done;
  for i = 0 to s - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i);
    cur.(i) <- off.(i)
  done;
  if Array.length t.pb_slot < t.batch_len then begin
    t.pb_slot <- Array.make (2 * t.batch_len) 0;
    t.pb_rank <- Array.make (2 * t.batch_len) 0
  end;
  let any_live = ref false in
  for r = 0 to t.batch_len - 1 do
    let slot = t.batch.(r) in
    let st = slab.state.(slot) in
    if st land cancelled_bit = 0 then any_live := true;
    let sh = shard_of t (owner_of_state st) in
    let idx = cur.(sh) in
    t.pb_slot.(idx) <- slot;
    t.pb_rank.(idx) <- t.base_rank + r;
    cur.(sh) <- idx + 1
  done;
  (* The clock is advanced once, before the barrier: worker domains read
     [now] but must not write it. *)
  if !any_live then t.clock <- tick;
  Exec.Pool.run_batch pool s (fun sh ->
      let ctx = Domain.DLS.get t.ctx_key in
      ctx.shard <- sh;
      let fired = ref 0 in
      for idx = off.(sh) to off.(sh + 1) - 1 do
        let slot = t.pb_slot.(idx) in
        ctx.rank <- t.pb_rank.(idx);
        let st = slab.state.(slot) in
        slab.state.(slot) <- st lor fired_bit;
        if st land cancelled_bit = 0 then begin
          incr fired;
          let action = slab.action.(slot) in
          slab.action.(slot) <- noop;
          action ()
        end
      done;
      ctx.rank <- -1;
      ctx.shard <- -1;
      t.shard_fired.(sh) <- !fired);
  for r = 0 to t.batch_len - 1 do
    release_slot slab t.batch.(r)
  done;
  for sh = 0 to s - 1 do
    t.processed <- t.processed + t.shard_fired.(sh);
    t.shard_fired.(sh) <- 0
  done

(* The shard whose next staged triple has the smallest rank, or -1 when
   every vector is consumed. Ranks never tie across shards (all of one
   rank's schedules come from one event, on one shard). *)
let next_staged t =
  let best = ref (-1) and best_rank = ref max_int in
  for sh = 0 to t.shards - 1 do
    let v = t.staging.(sh) and c = t.stage_cur.(sh) in
    if c < v.sn && v.sv.((3 * c) + 1) < !best_rank then begin
      best := sh;
      best_rank := v.sv.((3 * c) + 1)
    end
  done;
  !best

(* Merge one sub-round's staged effects back into the step: schedules in
   canonical (rank, program-order) order — a k-way merge of the
   per-shard vectors — where same-tick ones refill the batch for the
   next sub-round and later ones enter the queue; then the owed husk
   notes; then the component flush hooks (Net.Link_stats cross-shard
   staging). *)
let merge_subround t tick =
  Array.fill t.stage_cur 0 t.shards 0;
  let rec merge () =
    let sh = next_staged t in
    if sh >= 0 then begin
      let v = t.staging.(sh) and c = t.stage_cur.(sh) in
      t.stage_cur.(sh) <- c + 1;
      let at = v.sv.(3 * c) and f = v.sf.(c) in
      (* Release the staged closure: the vector keeps its capacity
         across steps and must not pin finished events. *)
      v.sf.(c) <- noop;
      let slot = new_event t v.sv.((3 * c) + 2) f in
      if at = tick then batch_push t slot else Wheel.add t.queue ~prio:at slot;
      merge ()
    end
  in
  merge ();
  for sh = 0 to t.shards - 1 do
    t.staging.(sh).sn <- 0;
    for _ = 1 to t.deferred_dead.(sh) do
      Wheel.note_dead t.queue
    done;
    t.deferred_dead.(sh) <- 0
  done;
  List.iter (fun f -> f ()) t.step_hooks

(* A parallel step: drain every event of the frontier tick into a
   batch, fire it shard-parallel, merge the staged effects, and repeat
   sub-rounds while the firing keeps scheduling into the same tick. The
   merge gives the scheduled events the ids and queue order the pop loop
   would have, so a step fires the same events in the same per-shard
   order as the pop loop does. *)
let parallel_step t tick pool =
  t.batch_len <- 0;
  while Wheel.min_prio t.queue = tick do
    batch_push t (pop_slot t)
  done;
  t.in_step <- true;
  t.base_rank <- 0;
  while t.batch_len > 0 do
    let len = t.batch_len in
    fire_batch_par t tick pool;
    t.base_rank <- t.base_rank + len;
    t.batch_len <- 0;
    merge_subround t tick
  done;
  t.in_step <- false

(* The one fire loop: pop and fire one event at a time, unless a pool is
   attached over more than one shard and full tracing is off, in which
   case the frontier tick fires as a parallel step. A toplevel tail
   recursion rather than a [ref]-driven while: it runs once per event
   over the whole simulation, and keeping it allocation-free means the
   only heap traffic per fired event is whatever the action itself
   does. [at < Time.infinity] is the non-empty test: the queue answers
   [max_int] when it has nothing. *)
let[@lint.hot] rec run t ~until =
  let at = Wheel.min_prio t.queue in
  if at <= until && at < Time.infinity then begin
    (match t.pool with
    | Some pool when t.shards > 1 && not !(t.tracing) -> parallel_step t at pool
    | _ -> fire_slot t at (pop_slot t));
    run t ~until
  end

let run_all t = run t ~until:Time.infinity
let pending t = Wheel.size t.queue
let processed t = t.processed
