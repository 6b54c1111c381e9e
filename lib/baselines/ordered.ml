open Dining.Types

type msg = Req | Fk

type proc = {
  pid : pid;
  order : pid array; (* neighbors sorted by ascending edge rank *)
  mutable phase : phase;
  fork : bool array; (* indexed like [order] *)
  token : bool array;
  mutable progress : int; (* locked ascending prefix of [order] *)
}

type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  detector : Fd.Detector.t;
  procs : proc array;
  pos : int array; (* directed slot (i, j) -> j's index in i's per-neighbor arrays *)
  mutable net : msg Net.Network.t option;
  mutable listeners : (pid -> phase -> unit) list;
}

let net t = match t.net with Some n -> n | None -> assert false
let proc t i = t.procs.(i)

let nbr_index t p j =
  let s = Cgraph.Graph.dir_index_opt t.graph p.pid j in
  if s < 0 then invalid_arg "ordered: not a neighbor";
  t.pos.(s)

let edge_rank i j = (min i j, max i j)

let notify t i =
  let p = proc t i in
  Dining.Instance.notify t.listeners i p.phase

let suspects t i j = t.detector.Fd.Detector.suspects ~observer:i ~target:j

(* Advance the locked prefix past held (or suspected) forks; request the
   first missing one; eat when the prefix covers every edge. *)
let try_actions t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let p = proc t i in
    if p.phase = Hungry then begin
      let deg = Array.length p.order in
      while p.progress < deg && (p.fork.(p.progress) || suspects t i p.order.(p.progress)) do
        p.progress <- p.progress + 1
      done;
      if p.progress < deg then begin
        let k = p.progress in
        if p.token.(k) && not p.fork.(k) then begin
          p.token.(k) <- false;
          Net.Network.send (net t) ~src:i ~dst:p.order.(k) Req
        end
      end
      else begin
        p.phase <- Eating;
        notify t i
      end
    end
  end

let receive_request t i ~from:j =
  let p = proc t i in
  let k = nbr_index t p j in
  if not p.fork.(k) then
    raise (Invariant_violation (Printf.sprintf "ordered: %d requested a fork %d lacks" j i));
  p.token.(k) <- true;
  (* Defer only while eating, or while the fork sits in the locked
     ascending prefix of an in-progress acquisition. *)
  let locked = p.phase = Hungry && k < p.progress in
  if p.phase <> Eating && not locked then begin
    p.fork.(k) <- false;
    Net.Network.send (net t) ~src:i ~dst:j Fk
  end;
  try_actions t i

let receive_fork t i ~from:j =
  let p = proc t i in
  let k = nbr_index t p j in
  if p.fork.(k) then
    raise (Invariant_violation (Printf.sprintf "ordered: duplicated fork (%d,%d)" i j));
  p.fork.(k) <- true;
  try_actions t i

let become_hungry t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let p = proc t i in
    if p.phase = Thinking then begin
      p.phase <- Hungry;
      p.progress <- 0;
      notify t i;
      try_actions t i
    end
  end

let stop_eating t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let p = proc t i in
    if p.phase = Eating then begin
      p.phase <- Thinking;
      p.progress <- 0;
      Array.iteri
        (fun k j ->
          if p.token.(k) && p.fork.(k) then begin
            p.fork.(k) <- false;
            Net.Network.send (net t) ~src:i ~dst:j Fk
          end)
        p.order;
      notify t i
    end
  end

let create ~engine ~faults ~graph ~delay ~rng ~detector () =
  let procs =
    Array.init (Cgraph.Graph.n graph) (fun i ->
        let order = Array.copy (Cgraph.Graph.neighbors graph i) in
        Array.sort (fun a b -> compare (edge_rank i a) (edge_rank i b)) order;
        {
          pid = i;
          order;
          phase = Thinking;
          (* Forks start at the lower endpoint of each edge (any fixed
             placement works; locks, not placement, give deadlock
             freedom). *)
          fork = Array.map (fun j -> i < j) order;
          token = Array.map (fun j -> i > j) order;
          progress = 0;
        })
  in
  let pos = Array.make (Cgraph.Graph.dir_count graph) 0 in
  Array.iter
    (fun p -> Array.iteri (fun k j -> pos.(Cgraph.Graph.dir_index graph p.pid j) <- k) p.order)
    procs;
  let t = { engine; faults; graph; detector; procs; pos; net = None; listeners = [] } in
  let network =
    Net.Network.create ~engine ~graph ~delay ~faults ~rng
      ~kind:(function Req -> "request" | Fk -> "fork")
      ~kind_index:(function Req -> 0 | Fk -> 1)
      ~kind_names:[| "request"; "fork" |]
      ~handler:(fun ~dst ~src msg ->
        match msg with
        | Req -> receive_request t dst ~from:src
        | Fk -> receive_fork t dst ~from:src)
      ()
  in
  t.net <- Some network;
  detector.Fd.Detector.subscribe (fun observer ->
      if observer >= 0 && observer < Array.length t.procs then try_actions t observer);
  t

let network_stats t = Net.Network.stats (net t)
let progress t i = (proc t i).progress

let check_invariants t =
  Cgraph.Graph.iter_edges t.graph (fun i j ->
      let pi = proc t i and pj = proc t j in
      if pi.fork.(nbr_index t pi j) && pj.fork.(nbr_index t pj i) then
        raise (Invariant_violation (Printf.sprintf "ordered: two forks on edge (%d,%d)" i j)))

let instance t =
  {
    Dining.Instance.name = "ordered-" ^ t.detector.Fd.Detector.name;
    become_hungry = become_hungry t;
    stop_eating = stop_eating t;
    phase = (fun i -> (proc t i).phase);
    add_listener = (fun f -> t.listeners <- t.listeners @ [ f ]);
    check_invariants = (fun () -> check_invariants t);
  }
