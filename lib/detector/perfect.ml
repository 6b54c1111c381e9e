let create _engine faults graph =
  let listeners = ref [] in
  Net.Faults.on_crash faults (fun crashed ->
      Array.iter
        (fun neighbor ->
          if not (Net.Faults.is_crashed faults neighbor) then
            Detector.notify listeners neighbor)
        (Cgraph.Graph.neighbors graph crashed));
  {
    Detector.name = "perfect";
    suspects = (fun ~observer:_ ~target -> Net.Faults.is_crashed faults target);
    subscribe = Detector.subscribe listeners;
  }
