(* Unit and property tests for the numeric substrate. *)

open Mathx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------ modarith *)

let test_addmod_basic () =
  check_int "3+4 mod 5" 2 (Modarith.addmod 3 4 5);
  check_int "0+0 mod 7" 0 (Modarith.addmod 0 0 7);
  check_int "6+6 mod 7" 5 (Modarith.addmod 6 6 7)

let test_submod_basic () =
  check_int "3-4 mod 5" 4 (Modarith.submod 3 4 5);
  check_int "4-3 mod 5" 1 (Modarith.submod 4 3 5);
  check_int "0-0 mod 2" 0 (Modarith.submod 0 0 2)

let test_mulmod_small_matches_native () =
  let m = 1_000_003 in
  for i = 0 to 200 do
    let a = (i * 7919) mod m and b = (i * 104729) mod m in
    check_int "small mulmod" (a * b mod m) (Modarith.mulmod a b m)
  done

let test_mulmod_large_modulus () =
  (* Near the 2^61 cap, where naive multiplication overflows. *)
  let m = (1 lsl 60) + 33 in
  let a = m - 2 and b = m - 3 in
  (* (m-2)(m-3) = m^2 -5m + 6 = 6 mod m *)
  check_int "(m-2)(m-3) mod m" 6 (Modarith.mulmod a b m);
  check_int "(m-1)^2 mod m" 1 (Modarith.mulmod (m - 1) (m - 1) m)

let test_powmod_fermat () =
  (* Fermat's little theorem on a large prime. *)
  let p = Primes.next_prime ((1 lsl 40) + 1) in
  List.iter
    (fun a -> check_int "a^(p-1) = 1 mod p" 1 (Modarith.powmod a (p - 1) p))
    [ 2; 3; 12345; p - 2 ]

let test_powmod_edge () =
  check_int "x^0 = 1" 1 (Modarith.powmod 5 0 7);
  check_int "0^5 = 0" 0 (Modarith.powmod 0 5 7);
  check_int "mod 1" 0 (Modarith.powmod 3 10 1)

let test_invmod () =
  let p = 1_000_000_007 in
  List.iter
    (fun a ->
      let inv = Modarith.invmod a p in
      check_int "a * a^-1 = 1" 1 (Modarith.mulmod a inv p))
    [ 1; 2; 999; p - 1 ];
  Alcotest.check_raises "non-invertible" (Invalid_argument "Modarith.invmod: not invertible")
    (fun () -> ignore (Modarith.invmod 4 8))

let test_egcd () =
  List.iter
    (fun (a, b) ->
      let g, u, v = Modarith.egcd a b in
      check_int "bezout" g ((a * u) + (b * v));
      check_int "gcd" (Modarith.gcd a b) g)
    [ (12, 18); (35, 64); (1, 1); (17, 0); (270, 192) ]

let test_modulus_guard () =
  Alcotest.check_raises "zero modulus"
    (Invalid_argument "Modarith: modulus must satisfy 1 <= m < 2^61") (fun () ->
      ignore (Modarith.addmod 0 0 0))

(* -------------------------------------------------------------- primes *)

let test_small_primes () =
  let primes = [ 2; 3; 5; 7; 11; 13; 17; 257; 65537; 1_000_000_007 ] in
  List.iter (fun p -> check (string_of_int p) true (Primes.is_prime p)) primes;
  let composites = [ 0; 1; 4; 9; 221; 65535; 1_000_000_008; 561; 41041 ] in
  (* 561 and 41041 are Carmichael numbers. *)
  List.iter (fun c -> check (string_of_int c) false (Primes.is_prime c)) composites

let test_large_prime_detection () =
  (* Mersenne prime 2^61 - 1 exceeds our modulus cap slightly, so use
     2^31 - 1 (prime) and 2^32 + 1 = 641 * 6700417 (composite). *)
  check "2^31-1 prime" true (Primes.is_prime ((1 lsl 31) - 1));
  check "2^32+1 composite" false (Primes.is_prime ((1 lsl 32) + 1));
  check "big semiprime" false (Primes.is_prime (1_000_003 * 1_000_033))

let test_next_prime () =
  check_int "next_prime 14" 17 (Primes.next_prime 14);
  check_int "next_prime 17" 17 (Primes.next_prime 17);
  check_int "next_prime 0" 2 (Primes.next_prime 0)

let test_fingerprint_prime_range () =
  for k = 1 to 15 do
    let p = Primes.fingerprint_prime k in
    check "p > 2^4k" true (p > 1 lsl (4 * k));
    check "p < 2^(4k+1)" true (p < 1 lsl ((4 * k) + 1));
    check "p prime" true (Primes.is_prime p)
  done

(* -------------------------------------------------------------- bitvec *)

let test_bitvec_roundtrip () =
  let s = "01101001110000111010" in
  Alcotest.(check string) "roundtrip" s (Bitvec.to_string (Bitvec.of_string s))

let test_bitvec_get_set () =
  let v = Bitvec.create 100 in
  Bitvec.set v 0 true;
  Bitvec.set v 61 true;
  Bitvec.set v 62 true;
  Bitvec.set v 99 true;
  check "bit 0" true (Bitvec.get v 0);
  check "bit 61 (word boundary)" true (Bitvec.get v 61);
  check "bit 62 (next word)" true (Bitvec.get v 62);
  check "bit 99" true (Bitvec.get v 99);
  check "bit 50" false (Bitvec.get v 50);
  check_int "popcount" 4 (Bitvec.popcount v);
  Bitvec.set v 61 false;
  check "cleared" false (Bitvec.get v 61);
  check_int "popcount after clear" 3 (Bitvec.popcount v)

let test_bitvec_disjoint () =
  let x = Bitvec.of_string "1010" and y = Bitvec.of_string "0101" in
  check "disjoint" true (Bitvec.disjoint x y);
  check_int "intersection 0" 0 (Bitvec.intersection_count x y);
  let z = Bitvec.of_string "0010" in
  check "not disjoint" false (Bitvec.disjoint x z);
  check_int "intersection 1" 1 (Bitvec.intersection_count x z)

let test_bitvec_bounds () =
  let v = Bitvec.create 4 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 4));
  Alcotest.check_raises "negative" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v (-1)))

let test_bitvec_sub_ones () =
  let v = Bitvec.of_string "11010110" in
  Alcotest.(check string) "sub" "010" (Bitvec.to_string (Bitvec.sub v ~pos:2 ~len:3));
  Alcotest.(check (list int)) "ones" [ 0; 1; 3; 5; 6 ] (Bitvec.ones v)

let test_bitvec_random_weight () =
  let rng = Rng.create 17 in
  for w = 0 to 20 do
    let v = Bitvec.random_with_weight rng 20 w in
    check_int "weight" w (Bitvec.popcount v)
  done

let test_bitvec_random_equal_structural () =
  (* Spare bits beyond the length are cleared, so equality is reliable. *)
  let rng = Rng.create 3 in
  let v = Bitvec.random rng 65 in
  let copy = Bitvec.of_string (Bitvec.to_string v) in
  check "structural equality" true (Bitvec.equal v copy)

(* ----------------------------------------------------------------- rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.bits62 a) (Rng.bits62 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 2000 do
    let v = Rng.int rng 7 in
    check "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 100 do
    let f = Rng.float rng in
    check "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let rng = Rng.create 5 in
  let a = Rng.split rng and b = Rng.split rng in
  let same = ref true in
  for _ = 1 to 20 do
    if Rng.bits62 a <> Rng.bits62 b then same := false
  done;
  check "split streams differ" false !same

let test_rng_uniformity_rough () =
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      check "bucket within 10% of mean" true
        (abs (c - (n / 10)) < n / 10))
    buckets

(* --------------------------------------------------------------- stats *)

let test_mean_variance () =
  let data = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Cstats.mean data);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Cstats.variance data)

let test_linear_fit_exact () =
  let pts = [ (1.0, 5.0); (2.0, 7.0); (3.0, 9.0); (10.0, 23.0) ] in
  let a, b = Cstats.linear_fit pts in
  Alcotest.(check (float 1e-9)) "slope" 2.0 a;
  Alcotest.(check (float 1e-9)) "intercept" 3.0 b

let test_loglog_slope_powerlaw () =
  let pts = List.init 6 (fun i ->
      let x = float_of_int (1 lsl i) in
      (x, 3.0 *. (x ** 1.5)))
  in
  let slope, _ = Cstats.loglog_slope pts in
  Alcotest.(check (float 1e-9)) "exponent" 1.5 slope

let test_wilson_interval () =
  let lo, hi = Cstats.wilson_interval ~successes:50 ~trials:100 ~z:1.96 in
  check "contains p" true (lo < 0.5 && hi > 0.5);
  check "in [0,1]" true (lo >= 0.0 && hi <= 1.0);
  let lo0, _ = Cstats.wilson_interval ~successes:0 ~trials:10 ~z:1.96 in
  Alcotest.(check (float 1e-9)) "zero successes lower" 0.0 lo0

(* --------------------------------------------------------- fingerprint *)

let test_fingerprint_streaming_matches_batch () =
  let rng = Rng.create 9 in
  let p = Primes.fingerprint_prime 2 in
  for _ = 1 to 50 do
    let v = Bitvec.random rng 16 in
    let t = Rng.int rng p in
    let s = Fingerprint.create ~p ~t in
    Bitvec.iteri (fun _ b -> Fingerprint.feed s b) v;
    check_int "stream = batch" (Fingerprint.of_bitvec ~p ~t v) (Fingerprint.value s)
  done

let test_fingerprint_distinguishes () =
  (* With a fresh random point, two strings differing in one bit collide
     with probability < m/p; over many trials we should see almost all
     distinguished. *)
  let rng = Rng.create 31 in
  let p = Primes.fingerprint_prime 2 in
  let m = 16 in
  let collisions = ref 0 and trials = 500 in
  for _ = 1 to trials do
    let v = Bitvec.random rng m in
    let v' = Bitvec.copy v in
    let pos = Rng.int rng m in
    Bitvec.set v' pos (not (Bitvec.get v' pos));
    let t = Fingerprint.random_point rng ~p in
    if Fingerprint.of_bitvec ~p ~t v = Fingerprint.of_bitvec ~p ~t v' then
      incr collisions
  done;
  check "collision rate below bound" true
    (float_of_int !collisions /. float_of_int trials < 16.0 /. float_of_int p +. 0.05)

let test_fingerprint_reset_and_meta () =
  let s = Fingerprint.create ~p:257 ~t:10 in
  Fingerprint.feed s true;
  Fingerprint.feed s false;
  check_int "fed" 2 (Fingerprint.fed s);
  Fingerprint.reset s;
  check_int "reset count" 0 (Fingerprint.fed s);
  check_int "reset value" 0 (Fingerprint.value s);
  check "space bits positive" true (Fingerprint.space_bits s > 0)

(* ------------------------------------------------------------- parallel *)

let test_parallel_matches_sequential () =
  let f ~chunk ~rng = chunk + Rng.int rng 1000 in
  let seq = Parallel.map_chunks ~domains:1 ~chunks:50 f ~rng:(Rng.create 7) in
  let par = Parallel.map_chunks ~domains:4 ~chunks:50 f ~rng:(Rng.create 7) in
  check "domain count does not change results" true (seq = par);
  check_int "chunk order preserved" 50 (List.length seq)

let test_parallel_count_successes () =
  let rng = Rng.create 77 in
  let hits = Parallel.count_successes ~trials:4000 (fun rng -> Rng.bool rng) ~rng in
  check "about half" true (abs (hits - 2000) < 200);
  check_int "zero trials" 0
    (Parallel.count_successes ~trials:0 (fun _ -> true) ~rng)

let test_parallel_empty_and_guards () =
  check_int "no chunks" 0
    (List.length (Parallel.map_chunks ~chunks:0 (fun ~chunk ~rng:_ -> chunk) ~rng:(Rng.create 1)));
  Alcotest.check_raises "negative trials"
    (Invalid_argument "Parallel.count_successes: negative trials") (fun () ->
      ignore (Parallel.count_successes ~trials:(-1) (fun _ -> true) ~rng:(Rng.create 1)))

(* ---------------------------------------------------------------- cplx *)

let test_cplx_algebra () =
  let a = Cplx.make 1.0 2.0 and b = Cplx.make 3.0 (-1.0) in
  check "mul" true
    (Cplx.approx_equal (Cplx.mul a b) (Cplx.make 5.0 5.0));
  check "conj" true (Cplx.approx_equal (Cplx.conj a) (Cplx.make 1.0 (-2.0)));
  Alcotest.(check (float 1e-12)) "norm2" 5.0 (Cplx.norm2 a);
  check "polar" true
    (Cplx.approx_equal (Cplx.polar 1.0 Float.pi) (Cplx.make (-1.0) 0.0) ~eps:1e-9)

(* ---------------------------------------------------------- properties *)

(* Slow reference for [mulmod]: a two-limb (31-bit) schoolbook product.
   Every partial product stays below 2^62, is reduced with the native
   [mod], shifted into place by repeated [addmod] doubling, and summed
   with [addmod] — no step shares [mulmod]'s double-and-add loop. *)
let mulmod_reference a b m =
  let lo x = x land ((1 lsl 31) - 1) and hi x = x lsr 31 in
  let rec shift x k = if k = 0 then x else shift (Modarith.addmod x x m) (k - 1) in
  let part x k = shift (x mod m) k in
  Modarith.addmod
    (part (hi a * hi b) 62)
    (Modarith.addmod
       (part ((hi a * lo b) + (lo a * hi b)) 31)
       (part (lo a * lo b) 0)
       m)
    m

(* Moduli up to 2^61 - 1 with a uniform bit length, so the native path
   (m <= 2^31) and the double-and-add path run about equally often at
   every scale, plus the boundary moduli; operands uniform in [0, m)
   with the extremes 0 and m - 1 mixed in. *)
let mulmod_case =
  let open QCheck.Gen in
  let max_m = (1 lsl 61) - 1 in
  frequency
    [
      ( 4,
        int_range 1 61 >>= fun bits ->
        int_range (1 lsl (bits - 1)) ((1 lsl bits) - 1) );
      (1, oneofl [ 1 lsl 31; (1 lsl 31) + 1; max_m ]);
    ]
  >>= fun m ->
  let operand = frequency [ (4, int_bound (m - 1)); (1, oneofl [ 0; m - 1 ]) ] in
  map2 (fun a b -> (a, b, m)) operand operand

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"mulmod = two-limb schoolbook reference on [0, m)"
      ~count:2000
      (make ~print:Print.(triple int int int) mulmod_case)
      (fun (a, b, m) -> Modarith.mulmod a b m = mulmod_reference a b m);
    Test.make ~name:"mulmod distributes over addmod" ~count:300
      (triple (int_bound 1_000_000) (int_bound 1_000_000) (int_range 2 1_000_000))
      (fun (a, b, m) ->
        let a = a mod m and b = b mod m in
        let lhs = Modarith.mulmod (Modarith.addmod a b m) 7 m in
        let rhs = Modarith.addmod (Modarith.mulmod a 7 m) (Modarith.mulmod b 7 m) m in
        lhs = rhs);
    Test.make ~name:"mulmod large modulus is commutative+assoc" ~count:200
      (triple (int_bound 1_000_000_000) (int_bound 1_000_000_000) (int_bound 1_000_000_000))
      (fun (a, b, c) ->
        let m = (1 lsl 59) + 55 in
        Modarith.mulmod a (Modarith.mulmod b c m) m
        = Modarith.mulmod (Modarith.mulmod a b m) c m
        && Modarith.mulmod a b m = Modarith.mulmod b a m);
    Test.make ~name:"bitvec of_string/to_string roundtrip" ~count:200
      (string_gen_of_size (Gen.int_range 0 200) (Gen.oneofl [ '0'; '1' ]))
      (fun s -> Bitvec.to_string (Bitvec.of_string s) = s);
    Test.make ~name:"popcount = length of ones" ~count:200
      (string_gen_of_size (Gen.int_range 1 150) (Gen.oneofl [ '0'; '1' ]))
      (fun s ->
        let v = Bitvec.of_string s in
        Bitvec.popcount v = List.length (Bitvec.ones v));
    Test.make ~name:"disjoint iff intersection_count = 0" ~count:200
      (pair
         (string_gen_of_size (Gen.return 40) (Gen.oneofl [ '0'; '1' ]))
         (string_gen_of_size (Gen.return 40) (Gen.oneofl [ '0'; '1' ])))
      (fun (a, b) ->
        let x = Bitvec.of_string a and y = Bitvec.of_string b in
        Bitvec.disjoint x y = (Bitvec.intersection_count x y = 0));
    Test.make ~name:"fingerprint linearity: F(v) determined by ones" ~count:100
      (string_gen_of_size (Gen.return 24) (Gen.oneofl [ '0'; '1' ]))
      (fun s ->
        let v = Bitvec.of_string s in
        let p = 65537 and t = 3 in
        let expected =
          List.fold_left
            (fun acc i -> Modarith.addmod acc (Modarith.powmod t i p) p)
            0 (Bitvec.ones v)
        in
        Fingerprint.of_bitvec ~p ~t v = expected);
  ]

let suite =
  [
    ("modarith addmod", `Quick, test_addmod_basic);
    ("modarith submod", `Quick, test_submod_basic);
    ("modarith mulmod small", `Quick, test_mulmod_small_matches_native);
    ("modarith mulmod large", `Quick, test_mulmod_large_modulus);
    ("modarith powmod fermat", `Quick, test_powmod_fermat);
    ("modarith powmod edge", `Quick, test_powmod_edge);
    ("modarith invmod", `Quick, test_invmod);
    ("modarith egcd", `Quick, test_egcd);
    ("modarith modulus guard", `Quick, test_modulus_guard);
    ("primes small", `Quick, test_small_primes);
    ("primes large", `Quick, test_large_prime_detection);
    ("primes next", `Quick, test_next_prime);
    ("primes fingerprint range", `Quick, test_fingerprint_prime_range);
    ("bitvec roundtrip", `Quick, test_bitvec_roundtrip);
    ("bitvec get/set boundaries", `Quick, test_bitvec_get_set);
    ("bitvec disjoint", `Quick, test_bitvec_disjoint);
    ("bitvec bounds", `Quick, test_bitvec_bounds);
    ("bitvec sub/ones", `Quick, test_bitvec_sub_ones);
    ("bitvec random weight", `Quick, test_bitvec_random_weight);
    ("bitvec random structural eq", `Quick, test_bitvec_random_equal_structural);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng rough uniformity", `Quick, test_rng_uniformity_rough);
    ("stats mean/variance", `Quick, test_mean_variance);
    ("stats linear fit", `Quick, test_linear_fit_exact);
    ("stats loglog slope", `Quick, test_loglog_slope_powerlaw);
    ("stats wilson", `Quick, test_wilson_interval);
    ("fingerprint streaming=batch", `Quick, test_fingerprint_streaming_matches_batch);
    ("fingerprint distinguishes", `Quick, test_fingerprint_distinguishes);
    ("fingerprint reset", `Quick, test_fingerprint_reset_and_meta);
    ("parallel = sequential", `Quick, test_parallel_matches_sequential);
    ("parallel count", `Quick, test_parallel_count_successes);
    ("parallel guards", `Quick, test_parallel_empty_and_guards);
    ("cplx algebra", `Quick, test_cplx_algebra);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
