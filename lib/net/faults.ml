type t = {
  engine : Sim.Engine.t;
  crash_at : Sim.Time.t array;
  (* The one live engine event per pending crash: rescheduling a crash
     to an earlier time cancels the superseded event, so listeners
     observe exactly one crash per pid; [no_event] when none. *)
  pending : Sim.Engine.event_id array;
  mutable listeners : (int -> unit) list; (* in subscription order *)
}

let create engine ~n =
  if n <= 0 then invalid_arg "Faults.create: n must be positive";
  { engine; crash_at = Array.make n Sim.Time.infinity; pending = Array.make n Sim.Engine.no_event; listeners = [] }

let n t = Array.length t.crash_at

let schedule_crash t ~pid ~at =
  if pid < 0 || pid >= n t then invalid_arg "Faults.schedule_crash: bad pid";
  if at < Sim.Engine.now t.engine then invalid_arg "Faults.schedule_crash: in the past";
  if at < t.crash_at.(pid) then begin
    Sim.Engine.cancel t.engine t.pending.(pid);
    t.crash_at.(pid) <- at;
    t.pending.(pid) <-
      Sim.Engine.schedule t.engine ~owner:pid ~at (fun () ->
          t.pending.(pid) <- Sim.Engine.no_event;
          Obs.Recorder.crash (Sim.Engine.recorder t.engine) ~time:at ~pid;
          Obs.Recorder.call_all t.listeners pid)
  end

let crash_time t pid = t.crash_at.(pid)
let is_crashed t pid = t.crash_at.(pid) <= Sim.Engine.now t.engine
let correct t pid = t.crash_at.(pid) = Sim.Time.infinity

let crashed_by t time =
  let acc = ref [] in
  for pid = n t - 1 downto 0 do
    if t.crash_at.(pid) <= time then acc := pid :: !acc
  done;
  !acc

(* Subscriptions are rare, crashes fire the list: append here so firing
   walks it as stored. *)
let on_crash t f = t.listeners <- t.listeners @ [ f ]
