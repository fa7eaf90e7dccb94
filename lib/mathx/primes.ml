(* Deterministic for all 64-bit integers with this witness set (Sorenson &
   Webster); a fortiori for OCaml's 63-bit ints. *)
let witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let is_prime n =
  if n >= 1 lsl 61 then invalid_arg "Primes.is_prime: need n < 2^61"
  else if n < 2 then false
  else if n < 4 then true
  else if n land 1 = 0 then false
  else begin
    let d = ref (n - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d lsr 1;
      incr s
    done;
    let strong_probable_prime a =
      let a = a mod n in
      if a = 0 then true
      else begin
        let x = ref (Modarith.powmod a !d n) in
        if !x = 1 || !x = n - 1 then true
        else begin
          let ok = ref false and i = ref 1 in
          while (not !ok) && !i < !s do
            x := Modarith.mulmod !x !x n;
            if !x = n - 1 then ok := true;
            incr i
          done;
          !ok
        end
      end
    in
    List.for_all strong_probable_prime witnesses
  end

let next_prime n =
  let n = max n 2 in
  if n > (1 lsl 61) - 1000 then invalid_arg "Primes.next_prime: out of range";
  let rec search c = if is_prime c then c else search (c + 1) in
  search n

let prime_in_range ~lo ~hi =
  let p = next_prime lo in
  if p < hi then p else raise Not_found

let fingerprint_prime k =
  if k < 1 || k > 15 then invalid_arg "Primes.fingerprint_prime: need 1 <= k <= 15";
  prime_in_range ~lo:((1 lsl (4 * k)) + 1) ~hi:(1 lsl ((4 * k) + 1))
