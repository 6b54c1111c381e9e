type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Ivec.get: index out of bounds";
  Array.unsafe_get v.data i

let[@lint.hot] push v x =
  if v.len = Array.length v.data then begin
    (* Doubling is the vector's storage growth, amortised over pushes. *)
    let data = (Array.make (max 16 (2 * v.len)) 0 [@lint.allow "hot-path-alloc"]) in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1
