(* Reference definition of Sim.Wheel's observable behaviour, kept as
   plain as possible: a list sorted by (priority, insertion seq), with
   the wheel's dead-husk accounting and compaction rule (at least 16
   entries queued, more than half known dead; the predicate is consulted
   only when compacting, and the caller reports popped husks). The
   differential tests in test_sim.ml hold the wheel to it: same pop
   stream, husks included, and the same min_prio and size after every
   operation. *)

type 'a t = {
  mutable entries : (int * int * 'a) list; (* (prio, seq, value), ascending *)
  mutable next_seq : int;
  mutable dead_count : int;
  dead : 'a -> bool;
}

let create ~dead () = { entries = []; next_seq = 0; dead_count = 0; dead }

let add t ~prio v =
  if prio < 0 || prio = max_int then invalid_arg "Queue_reference.add: prio out of range";
  let by_key (p, s, _) (p', s', _) = compare (p, s) (p', s') in
  t.entries <- List.merge by_key t.entries [ (prio, t.next_seq, v) ];
  t.next_seq <- t.next_seq + 1

let size t = List.length t.entries
let min_prio t = match t.entries with [] -> max_int | (p, _, _) :: _ -> p

let pop t =
  match t.entries with
  | [] -> invalid_arg "Queue_reference.pop: empty queue"
  | (_, _, v) :: rest ->
      t.entries <- rest;
      v

(* The caller reports a dead entry it popped, as the engine does. *)
let note_popped_dead t = t.dead_count <- max 0 (t.dead_count - 1)

let note_dead t =
  t.dead_count <- min (size t) (t.dead_count + 1);
  if size t >= 16 && 2 * t.dead_count > size t then begin
    t.entries <- List.filter (fun (_, _, v) -> not (t.dead v)) t.entries;
    t.dead_count <- 0
  end
