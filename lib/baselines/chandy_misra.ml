open Dining.Types

type msg = Req | Fk

type proc = {
  pid : pid;
  nbrs : pid array;
  mutable phase : phase;
  fork : bool array;
  clean : bool array; (* meaningful only while fork.(k) or the fork is in transit *)
  token : bool array; (* request token, as in Chandy-Misra *)
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
  if s < 0 then invalid_arg "chandy_misra: not a neighbor";
  t.pos.(s)

let notify t i =
  let p = proc t i in
  Dining.Instance.notify t.listeners i p.phase

let suspects t i j = t.detector.Fd.Detector.suspects ~observer:i ~target:j

let try_actions t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let p = proc t i in
    if p.phase = Hungry then begin
      (* Request each missing fork with the request token. *)
      Array.iteri
        (fun k j ->
          if p.token.(k) && not p.fork.(k) then begin
            p.token.(k) <- false;
            Net.Network.send (net t) ~src:i ~dst:j Req
          end)
        p.nbrs;
      let may_eat = ref true in
      Array.iteri
        (fun k j -> if not (p.fork.(k) || suspects t i j) then may_eat := false)
        p.nbrs;
      if !may_eat then begin
        p.phase <- Eating;
        (* Eating soils every held fork. *)
        Array.iteri (fun k _ -> if p.fork.(k) then p.clean.(k) <- false) p.nbrs;
        notify t i
      end
    end
  end

let receive_request t i ~from:j =
  let p = proc t i in
  let k = nbr_index t p j in
  if not p.fork.(k) then
    raise (Invariant_violation (Printf.sprintf "chandy_misra: %d requested a fork %d lacks" j i));
  p.token.(k) <- true;
  (* Hygienic rule: yield iff the fork is dirty and we are not eating. *)
  let defer = p.phase = Eating || (p.phase = Hungry && p.clean.(k)) in
  if not defer then begin
    p.fork.(k) <- false;
    p.clean.(k) <- true; (* the fork is cleaned as it is sent *)
    Net.Network.send (net t) ~src:i ~dst:j Fk
  end;
  try_actions t i

let receive_fork t i ~from:j =
  let p = proc t i in
  let k = nbr_index t p j in
  if p.fork.(k) then
    raise (Invariant_violation (Printf.sprintf "chandy_misra: duplicated fork (%d,%d)" i j));
  p.fork.(k) <- true;
  p.clean.(k) <- true;
  try_actions t i

let become_hungry t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let p = proc t i in
    if p.phase = Thinking then begin
      p.phase <- Hungry;
      notify t i;
      try_actions t i
    end
  end

let stop_eating t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let p = proc t i in
    if p.phase = Eating then begin
      p.phase <- Thinking;
      (* Grant deferred requests; the forks were dirtied by eating. *)
      Array.iteri
        (fun k j ->
          if p.token.(k) && p.fork.(k) then begin
            p.fork.(k) <- false;
            p.clean.(k) <- true;
            Net.Network.send (net t) ~src:i ~dst:j Fk
          end)
        p.nbrs;
      notify t i
    end
  end

let create ~engine ~faults ~graph ~delay ~rng ~detector () =
  let procs =
    Array.init (Cgraph.Graph.n graph) (fun i ->
        let nbrs = Cgraph.Graph.neighbors graph i in
        let deg = Array.length nbrs in
        {
          pid = i;
          nbrs;
          phase = Thinking;
          (* Dirty forks at the lower-id endpoint: the initial precedence
             graph (edges toward fork holders) is acyclic. *)
          fork = Array.map (fun j -> i < j) nbrs;
          clean = Array.make deg false;
          token = Array.map (fun j -> i > j) nbrs;
        })
  in
  let pos = Array.make (Cgraph.Graph.dir_count graph) 0 in
  Array.iter
    (fun p -> Array.iteri (fun k j -> pos.(Cgraph.Graph.dir_index graph p.pid j) <- k) p.nbrs)
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
let holds_fork t i j = (proc t i).fork.(nbr_index t (proc t i) j)
let fork_clean t i j = (proc t i).clean.(nbr_index t (proc t i) j)

let check_invariants t =
  Cgraph.Graph.iter_edges t.graph (fun i j ->
      let pi = proc t i and pj = proc t j in
      if pi.fork.(nbr_index t pi j) && pj.fork.(nbr_index t pj i) then
        raise (Invariant_violation (Printf.sprintf "chandy_misra: two forks on edge (%d,%d)" i j)))

let instance t =
  {
    Dining.Instance.name = "chandy-misra-" ^ t.detector.Fd.Detector.name;
    become_hungry = become_hungry t;
    stop_eating = stop_eating t;
    phase = (fun i -> (proc t i).phase);
    add_listener = (fun f -> t.listeners <- t.listeners @ [ f ]);
    check_invariants = (fun () -> check_invariants t);
  }
