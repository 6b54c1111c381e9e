type t = {
  name : string;
  become_hungry : Types.pid -> unit;
  stop_eating : Types.pid -> unit;
  phase : Types.pid -> Types.phase;
  add_listener : (Types.pid -> Types.phase -> unit) -> unit;
  check_invariants : unit -> unit;
}

let[@lint.hot] rec notify listeners pid phase =
  match listeners with
  | [] -> ()
  | f :: rest ->
      f pid phase;
      notify rest pid phase
