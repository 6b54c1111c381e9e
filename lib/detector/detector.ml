type t = {
  name : string;
  suspects : observer:int -> target:int -> bool;
  subscribe : (int -> unit) -> unit;
}

(* Listeners are kept in subscription order: subscribing (a handful of
   times per world) pays the append, so an emission walks the list as
   it is, with no reversed copy and no closure. *)
let subscribe listeners f = listeners := !listeners @ [ f ]

let notify listeners observer = Obs.Recorder.call_all !listeners observer
