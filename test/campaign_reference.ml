(* Reference definition of Fuzz.Campaign.run, kept as the campaign
   first computed it: every shrink attempt is a fresh simulation from
   t = 0, with no verdict cache and no prefix reports, sequentially.
   The differential test in test_fuzz.ml holds the campaign to the same
   report, shrunk reproducers and attempt counts included. *)

let run ~profile ~seed ~cases : Fuzz.Campaign.report =
  let case_result case =
    let s = Fuzz.Gen.scenario ~profile ~campaign_seed:seed ~case in
    let props =
      match profile with
      | Fuzz.Gen.Sound -> Fuzz.Property.applicable s
      | Fuzz.Gen.Hostile -> Fuzz.Property.all
    in
    let r = Harness.Run.run s in
    let failure i (property, message) : Fuzz.Campaign.failure =
      let f =
        {
          Fuzz.Campaign.case;
          property;
          message;
          scenario = s;
          shrunk = s;
          shrink_steps = 0;
          shrink_attempts = 0;
          shrunk_message = message;
        }
      in
      if i > 0 then f
      else
        let p = Option.get (Fuzz.Property.find property) in
        let check s' = p.check (Harness.Run.run s') in
        let m = Fuzz.Shrink.minimize ~still_failing:(fun s' -> check s' <> None) s in
        {
          f with
          shrunk = m.scenario;
          shrink_steps = m.steps;
          shrink_attempts = m.attempts;
          shrunk_message = Option.value (check m.scenario) ~default:message;
        }
    in
    (props, List.mapi failure (Fuzz.Property.failures props r), r)
  in
  let results = List.init cases case_result in
  let sum f = List.fold_left (fun acc (_, _, r) -> acc + f r) 0 results in
  let checked_on (p : Fuzz.Property.t) =
    List.length
      (List.filter
         (fun (props, _, _) -> List.exists (fun (q : Fuzz.Property.t) -> q.name = p.name) props)
         results)
  in
  {
    seed;
    profile;
    cases;
    checked = List.map (fun (p : Fuzz.Property.t) -> (p.name, checked_on p)) Fuzz.Property.all;
    failures = List.concat_map (fun (_, failures, _) -> failures) results;
    total_eats = sum (fun r -> r.Harness.Run.total_eats);
    total_events = sum (fun r -> r.Harness.Run.events_processed);
  }
