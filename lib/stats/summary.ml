type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty =
  { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if q < 0. || q > 1. then invalid_arg "Summary.percentile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = min (int_of_float rank) (n - 2) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
  end

let of_floats samples =
  match samples with
  | [] -> empty
  | _ ->
      let arr = Array.of_list samples in
      (* Float.compare orders floats exactly as polymorphic compare
         does, without a generic comparison call per sort step. *)
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let sum = Array.fold_left ( +. ) 0. arr in
      let mean = sum /. float_of_int n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. arr
        /. float_of_int n
      in
      {
        count = n;
        mean;
        stddev = sqrt var;
        min = arr.(0);
        max = arr.(n - 1);
        p50 = percentile arr 0.5;
        p95 = percentile arr 0.95;
        p99 = percentile arr 0.99;
      }

let of_ints samples = of_floats (List.map float_of_int samples)

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f" t.count t.mean t.p50
    t.p95 t.p99 t.max
