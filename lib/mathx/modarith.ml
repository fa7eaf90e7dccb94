let max_modulus = 1 lsl 61

let check_modulus m =
  if m < 1 || m >= max_modulus then
    invalid_arg "Modarith: modulus must satisfy 1 <= m < 2^61"

let addmod a b m =
  check_modulus m;
  let s = a + b in
  if s >= m then s - m else s

let submod a b m =
  check_modulus m;
  let d = a - b in
  if d < 0 then d + m else d

(* Three regimes by modulus size:
   - m <= 2^31: the native product a * b < 2^62 fits an int.
   - m < 2^50: a float quotient.  a, b and m are exact doubles and
     ab/m < 2^50, so two roundings leave q within 1 of floor(ab/m); the
     true remainder ab - qm then lies in [-m, 2m), well inside 63 bits,
     so the wrapping int product recovers it exactly.
   - otherwise double-and-add: every intermediate stays below 2*m < 2^63. *)
let mulmod a b m =
  check_modulus m;
  if m <= 1 lsl 31 then a * b mod m
  else if m < 1 lsl 50 then begin
    let q = int_of_float (float_of_int a *. float_of_int b /. float_of_int m) in
    let r = (a * b) - (q * m) in
    if r < 0 then r + m else if r >= m then r - m else r
  end
  else begin
    let acc = ref 0 and a = ref a and b = ref b in
    while !b > 0 do
      if !b land 1 = 1 then begin
        acc := !acc + !a;
        if !acc >= m then acc := !acc - m
      end;
      a := !a lsl 1;
      if !a >= m then a := !a - m;
      b := !b lsr 1
    done;
    !acc
  end

let powmod a e m =
  check_modulus m;
  if e < 0 then invalid_arg "Modarith.powmod: negative exponent";
  let acc = ref (1 mod m) and base = ref (a mod m) and e = ref e in
  while !e > 0 do
    if !e land 1 = 1 then acc := mulmod !acc !base m;
    base := mulmod !base !base m;
    e := !e lsr 1
  done;
  !acc

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let rec egcd a b =
  if b = 0 then (a, 1, 0)
  else
    let g, u, v = egcd b (a mod b) in
    (g, v, u - (a / b) * v)

let invmod a m =
  check_modulus m;
  let g, u, _ = egcd (((a mod m) + m) mod m) m in
  if g <> 1 then invalid_arg "Modarith.invmod: not invertible"
  else ((u mod m) + m) mod m
