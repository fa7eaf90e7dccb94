(* Property tests for Mathx.Parallel: the seed-determinism contract
   (results independent of the domain count), agreement with sequential
   folds, and the documented edge cases. *)

open Mathx

let qtest = QCheck_alcotest.to_alcotest

let prop_domain_count_invariant =
  QCheck.Test.make ~name:"map_chunks: domains:1 = domains:4 on the same seed"
    ~count:50
    QCheck.(pair small_nat (int_bound 40))
    (fun (seed, chunks) ->
      let run domains =
        Parallel.map_chunks ~domains ~chunks
          (fun ~chunk ~rng -> (chunk, Rng.int rng 1_000_000, Rng.float rng))
          ~rng:(Rng.create seed)
      in
      run 1 = run 4)

let prop_chunk_order =
  QCheck.Test.make ~name:"map_chunks: results arrive in chunk order" ~count:30
    QCheck.(int_bound 60)
    (fun chunks ->
      Parallel.map_chunks ~chunks (fun ~chunk ~rng:_ -> chunk)
        ~rng:(Rng.create 1)
      = List.init chunks Fun.id)

let prop_count_successes_matches_fold =
  QCheck.Test.make
    ~name:"count_successes = sequential fold over in-order splits" ~count:50
    QCheck.(pair small_nat (int_bound 60))
    (fun (seed, trials) ->
      let f rng = Rng.int rng 10 < 3 in
      let parallel =
        Parallel.count_successes ~domains:4 ~trials f ~rng:(Rng.create seed)
      in
      let sequential =
        let rng = Rng.create seed in
        let hits = ref 0 in
        for _ = 1 to trials do
          if f (Rng.split rng) then incr hits
        done;
        !hits
      in
      parallel = sequential)

(* Range lengths around the chunking boundaries: the 2048-element map
   grain, the 16384-element [sum_grain] (the largest single-chunk
   reduction), and past the 64-chunk cap of each (2048 * 64 and
   16384 * 64). *)
let range_length =
  QCheck.(
    make ~print:Print.int
      Gen.(
        frequency
          [
            ( 3,
              oneofl
                [ 0; 1; 2047; 2048; 2049; 16383; 16384; 16385; 131072;
                  131073; 1_048_576; 1_048_577; 1_100_000 ] );
            (1, int_range 0 200_000);
          ]))

let at_domains run = List.map run [ 1; 2; 4 ]
let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

let prop_iter_range_domain_invariant =
  QCheck.Test.make
    ~name:"iter_range: same chunks, each index once, at domains 1/2/4"
    ~count:30 range_length
    (fun n ->
      let run domains =
        (* Which chunk (by its [lo]) covered each index, and how often. *)
        let owner = Array.make n (-1) and visits = Array.make n 0 in
        Parallel.iter_range ~domains n (fun lo hi ->
            for i = lo to hi - 1 do
              owner.(i) <- lo;
              visits.(i) <- visits.(i) + 1
            done);
        (owner, visits)
      in
      let runs = at_domains run in
      all_equal runs
      && Array.for_all (( = ) 1) (snd (List.hd runs)))

let prop_sum_range_domain_invariant =
  QCheck.Test.make ~name:"sum_range: bit-identical at domains 1/2/4"
    ~count:30 range_length
    (fun n ->
      (* Terms of mixed magnitude, so any re-association moves bits. *)
      let f lo hi =
        let acc = ref 0.0 in
        for i = lo to hi - 1 do
          acc := !acc +. (sin (float_of_int i) *. Float.ldexp 1.0 (i mod 40))
        done;
        !acc
      in
      let runs =
        at_domains (fun domains ->
            Int64.bits_of_float (Parallel.sum_range ~domains n f))
      in
      (* ...and up to 16384 elements the reduction is exactly [f 0 n]. *)
      all_equal runs
      && (n > 16384 || List.hd runs = Int64.bits_of_float (f 0 n)))

let check_int = Alcotest.(check int)

let test_zero_chunks () =
  Alcotest.(check (list int)) "chunks:0 is []" []
    (Parallel.map_chunks ~chunks:0 (fun ~chunk ~rng:_ -> chunk)
       ~rng:(Rng.create 7));
  (* ...and consumes no randomness: the caller's stream is untouched. *)
  let a = Rng.create 7 and b = Rng.create 7 in
  ignore (Parallel.map_chunks ~chunks:0 (fun ~chunk ~rng:_ -> chunk) ~rng:a);
  check_int "rng untouched" (Rng.int b 1000) (Rng.int a 1000)

let test_zero_domains () =
  let run domains =
    Parallel.map_chunks ~domains ~chunks:9
      (fun ~chunk ~rng -> (chunk, Rng.int rng 100))
      ~rng:(Rng.create 3)
  in
  Alcotest.(check bool) "domains:0 behaves like domains:1" true (run 0 = run 1)

let test_negative_chunks () =
  Alcotest.check_raises "negative chunks rejected"
    (Invalid_argument "Parallel.map_chunks: negative chunk count") (fun () ->
      ignore
        (Parallel.map_chunks ~chunks:(-1) (fun ~chunk ~rng:_ -> chunk)
           ~rng:(Rng.create 1)))

let test_negative_trials () =
  Alcotest.check_raises "negative trials rejected"
    (Invalid_argument "Parallel.count_successes: negative trials") (fun () ->
      ignore
        (Parallel.count_successes ~trials:(-2) (fun _ -> true)
           ~rng:(Rng.create 1)))

let test_negative_range () =
  Alcotest.check_raises "iter_range: negative length rejected"
    (Invalid_argument "Parallel.iter_range: negative length") (fun () ->
      Parallel.iter_range (-1) (fun _ _ -> ()));
  Alcotest.check_raises "sum_range: negative length rejected"
    (Invalid_argument "Parallel.sum_range: negative length") (fun () ->
      ignore (Parallel.sum_range (-1) (fun _ _ -> 0.0)))

let test_zero_trials () =
  check_int "trials:0 counts 0" 0
    (Parallel.count_successes ~trials:0 (fun _ -> true) ~rng:(Rng.create 1))

let suite =
  [
    qtest prop_domain_count_invariant;
    qtest prop_chunk_order;
    qtest prop_count_successes_matches_fold;
    qtest prop_iter_range_domain_invariant;
    qtest prop_sum_range_domain_invariant;
    ("chunks:0", `Quick, test_zero_chunks);
    ("domains:0", `Quick, test_zero_domains);
    ("negative chunks", `Quick, test_negative_chunks);
    ("negative trials", `Quick, test_negative_trials);
    ("negative range", `Quick, test_negative_range);
    ("trials:0", `Quick, test_zero_trials);
  ]
