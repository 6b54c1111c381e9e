type span = { id : int; name : string; parent : int; start_ns : int; stop_ns : int }

type open_span = { o_name : string; o_parent : int; o_start : int }

type t = {
  enabled : bool;
  mutable opened : open_span array;
  mutable count : int;
  mutable closed : span list;
}

let create ~enabled = { enabled; opened = [||]; count = 0; closed = [] }
let enabled t = t.enabled

let enter t ?(parent = -1) name =
  if not t.enabled then -1
  else begin
    if t.count = Array.length t.opened then begin
      let bigger = Array.make (max 64 (2 * t.count)) { o_name = ""; o_parent = -1; o_start = 0 } in
      Array.blit t.opened 0 bigger 0 t.count;
      t.opened <- bigger
    end;
    let id = t.count in
    t.opened.(id) <- { o_name = name; o_parent = parent; o_start = Clock.now_ns () };
    t.count <- id + 1;
    id
  end

let exit t id =
  if t.enabled then begin
    let stop_ns = Clock.now_ns () in
    let o = t.opened.(id) in
    t.closed <- { id; name = o.o_name; parent = o.o_parent; start_ns = o.o_start; stop_ns } :: t.closed
  end

let with_ t ?parent name f =
  let id = enter t ?parent name in
  Fun.protect ~finally:(fun () -> exit t id) (fun () -> f id)

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let duration_ns s = s.stop_ns - s.start_ns

let self_ns all s =
  let clipped =
    List.filter_map
      (fun c ->
        if c.parent <> s.id then None
        else
          let a = max c.start_ns s.start_ns and b = min c.stop_ns s.stop_ns in
          if b > a then Some (a, b) else None)
      all
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) clipped
  in
  duration_ns s - covered

(* Children indexed by parent once: a campaign trace has ~10^5 spans. *)
let self_ns_all all =
  let kids = Hashtbl.create 1024 in
  List.iter (fun c -> if c.parent >= 0 then Hashtbl.add kids c.parent c) all;
  fun s -> self_ns (Hashtbl.find_all kids s.id) s

let sum_named f all name =
  List.fold_left (fun acc s -> if s.name = name then acc + f s else acc) 0 all
  |> fun ns -> float_of_int ns *. 1e-9

let total_s all name = sum_named duration_ns all name
let self_s all name = sum_named (self_ns_all all) all name

let write_jsonl path all =
  let rec mkdir_p d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int all in
  let self = self_ns_all all in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
            s.id s.name s.parent (s.start_ns - origin) (s.stop_ns - origin) (self s))
        all)
