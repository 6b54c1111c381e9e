let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Stat.median: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile ~p xs =
  let n = List.length xs in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  let beyond = n - rank in
  if n = 0 || beyond < 10 then
    Error (Printf.sprintf "p%g needs >= 10 samples beyond it; %d samples leave %d" p n (max 0 beyond))
  else Ok (List.nth (List.sort compare xs) (rank - 1))

let tail xs =
  List.find_map
    (fun p -> match percentile ~p xs with Ok v -> Some (p, v) | Error _ -> None)
    [ 99.9; 99.; 95.; 90.; 75. ]

type ops = { attempted : int; failed : int }

let count failed xs =
  List.fold_left
    (fun o x -> { attempted = o.attempted + 1; failed = (o.failed + if failed x then 1 else 0) })
    { attempted = 0; failed = 0 } xs

let failure_share o =
  if o.attempted = 0 then 0. else float_of_int o.failed /. float_of_int o.attempted
