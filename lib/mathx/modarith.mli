(** Overflow-safe modular arithmetic on OCaml's native [int].

    All functions require a modulus [m] with [1 <= m < 2^61] and operands
    already reduced to [0 <= a, b < m].  Within that range no intermediate
    computation overflows the 63-bit native integer. *)

val addmod : int -> int -> int -> int
(** [addmod a b m] is [(a + b) mod m] for operands [0 <= a, b < m];
    other operands are not reduced and give unspecified results. *)

val submod : int -> int -> int -> int
(** [submod a b m] is [(a - b) mod m], in [0, m), for operands
    [0 <= a, b < m]; other operands give unspecified results. *)

val mulmod : int -> int -> int -> int
(** [mulmod a b m] is [(a * b) mod m] for operands [0 <= a, b < m],
    computed without overflow for any modulus below [2^61] (binary
    double-and-add above [2^31]).  Operands are not reduced: outside
    [0, m) the result is unspecified (for [m > 2^31], [mulmod (3m+5) 1 m]
    is not [5]). *)

val powmod : int -> int -> int -> int
(** [powmod a e m] is [a^e mod m] for [a >= 0] and [e >= 0]
    (square-and-multiply; [a] is reduced first, so it may exceed [m]). *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor. *)

val egcd : int -> int -> int * int * int
(** [egcd a b] is [(g, u, v)] with [g = gcd a b] and [a*u + b*v = g]. *)

val invmod : int -> int -> int
(** [invmod a m] is the multiplicative inverse of [a] modulo [m].
    @raise Invalid_argument if [gcd a m <> 1]. *)
