(** Primality testing and prime search.

    Deterministic Miller–Rabin with the standard 12-witness set, over the
    domain [0 <= n < 2^61] that {!Modarith} accepts as a modulus. *)

val is_prime : int -> bool
(** [is_prime n] decides primality of [0 <= n < 2^61] deterministically
    (negative [n] is not prime).
    @raise Invalid_argument if [n >= 2^61]. *)

val next_prime : int -> int
(** [next_prime n] is the smallest prime [>= n].
    @raise Invalid_argument if the search would leave the safe range. *)

val prime_in_range : lo:int -> hi:int -> int
(** [prime_in_range ~lo ~hi] is the smallest prime in [[lo, hi)].
    @raise Not_found if the interval contains no prime. *)

val fingerprint_prime : int -> int
(** [fingerprint_prime k] is the prime the paper's procedure A2 uses: the
    smallest prime [p] with [2^{4k} < p < 2^{4k+1}] (Bertrand guarantees
    existence).  Requires [1 <= k <= 15] so that [p] fits in an [int]. *)
