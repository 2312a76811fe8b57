(** Total truth assignments (witnesses). *)

type t
(** An assignment to variables [1 .. n]. *)

val make : int -> (int -> bool) -> t
(** [make n value] tabulates [value] over [1 .. n]. *)

val of_bool_array : bool array -> t
(** The array is indexed from 0 with slot [v] holding variable [v+1]. *)

type support
(** The variable list [1 .. n], built once and shared by every model
    over it, so that a stream of witnesses allocates one values array
    per model and nothing else. *)

val support : int -> support

val of_values : support -> bool array -> t
(** [of_values s values] is the model over [s] whose slot [i] holds
    variable [i+1]. [values] is not copied: the caller must not mutate
    it afterwards.
    @raise Invalid_argument if the lengths differ. *)

val prefix : support -> t -> t
(** [prefix s m] restricts a model over [1 .. k] to the variables
    [1 .. n] of [s] ([n <= k]) — how BSAT sessions drop the solver's
    activation variables from a witness. The result is [m] itself when
    [k = n] and shares [s] otherwise.
    @raise Invalid_argument if [m] is not over [1 .. k] for some
    [k >= n]. *)

val num_vars : t -> int
val value : t -> int -> bool

val restrict : t -> int array -> t
(** Projection onto a variable subset: returns a packed assignment
    whose key (see {!key}) identifies the projected witness. The
    projected model still answers {!value} for the selected variables
    and raises [Invalid_argument] for others. *)

val key : t -> string
(** A canonical byte string identifying the assignment (used to
    deduplicate and histogram witnesses). Two models over the same
    variable set have equal keys iff they agree on every variable. *)

val compare : t -> t -> int
(** Lexicographic order on the values, variable by variable in
    ascending order, with [false < true]. On models over one variable
    set this is exactly the order of their {!key}s (the key is the
    variable list followed by the values packed most significant bit
    first), without building either key.
    @raise Invalid_argument if the models are over different variable
    sets. *)

val to_dimacs : t -> int list
(** Signed-integer rendering over the model's variables, ascending. *)

val satisfies : Formula.t -> t -> bool
(** Checks the model against every clause and XOR of the formula. *)

(** {2 Flat re-check}

    Checking many models against one formula: the formula is compiled
    once into flat literal arrays, and each check reads the model's
    values directly instead of going through {!Formula.eval}'s
    per-variable closure. *)

type check

val compile : Formula.t -> check

val violation :
  check ->
  ?xors:Xor_clause.t list ->
  t ->
  [ `Clause of int | `Xor of int | `Hash_row of int ] option
(** The first constraint the model falsifies: the formula's clause or
    XOR at that index, or the row at that index of the extra XOR rows
    [xors] (a hash layer); [None] when it satisfies them all. Agrees
    with {!satisfies} on the formula plus [xors].
    @raise Invalid_argument unless the model is over [1 .. n] for some
    [n] at least the formula's variable count. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
