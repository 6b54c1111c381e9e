(* The splitmix64 state lives unboxed in an 8-byte buffer: a mutable
   [int64] record field would box a fresh state on every draw (3 words)
   plus the returned output (3 more). Read through Bytes.get_int64_ne
   and with the mixer inlined, a draw that ends in an int or a float
   keeps every intermediate in registers and allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t
let split t = create (next t)

let split_named t label =
  (* Hash the label into the current seed without advancing [t]. *)
  let h = ref (Bytes.get_int64_ne t 0) in
  String.iter (fun c -> h := mix (Int64.add !h (Int64.of_int (Char.code c)))) label;
  create (mix !h)

let[@lint.hot] int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let[@lint.hot] int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] float t =
  let bits53 = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits53 /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  let u = float t in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
