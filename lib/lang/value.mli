(** Runtime values of the PipeLang interpreter.

    An object is a fixed-layout record with the class declaration itself
    as the layout descriptor, so there is no class registry to share
    between domains: its [float] fields sit in a flat [float array],
    which a store boxes nothing into, and every other field in a
    [Value.t array], each part in declaration order.  PipeLang has no
    inheritance, so code that knows an object's class resolves a field
    to its place once ({!slot}) and reads the part in place.  Objects
    built by [new], by unpacking and by host externs ({!make_object})
    share the program's declaration.  Equality and printing go by
    class and field name, never by declaration identity, so objects
    from two parses of one program compare and print alike.

    A [float[]] has two forms.  [Varray] holds boxed [Vfloat]s; it is
    what a host may build.  [Vfloats] is a flat [float array]: [new
    float[n]], every unpack of a [float] array and {!deep_copy} of it
    make this form, an element read boxes one [Vfloat] and a store
    unboxes (an [int] is widened, as by {!as_float}).  The two forms
    are one value: {!equal}, {!pp} and the wire encoding do not tell
    them apart, and hosts read either through {!as_floats}.

    The flat form and {!Vec}'s chunks keep per-item values young.  An
    array above 256 words is born in the major heap, so every young value stored into it is
    promoted at the next minor collection; a flat [float array] stores
    no pointer, and a {!Vec} keeps its elements in chunks of at most
    256, each allocated young with the values pushed into it. *)

(** Growable vector, used for [List<T>] collections: elements live in
    chunks of at most 256, so a push never stores into an array born in
    the major heap (up to 65,536 elements, beyond which the array of
    chunks is). *)
module Vec : sig
  type 'a t

  val create : unit -> 'a t
  val of_list : 'a list -> 'a t

  (** [init n f] holds [f 0], ..., [f (n - 1)], computed in index
      order, filled straight into chunks. *)
  val init : int -> (int -> 'a) -> 'a t

  val length : 'a t -> int

  (** @raise Invalid_argument on out-of-bounds access. *)
  val get : 'a t -> int -> 'a

  val set : 'a t -> int -> 'a -> unit
  val push : 'a t -> 'a -> unit
  val clear : 'a t -> unit

  (** In index order, over the elements present when it starts. *)
  val iter : ('a -> unit) -> 'a t -> unit
  val to_list : 'a t -> 'a list
  val map : ('a -> 'b) -> 'a t -> 'b t
end

type t =
  | Vunit
  | Vnull
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstring of string
  | Varray of t array
  | Vfloats of float array  (** a [float[]], unboxed *)
  | Vlist of t Vec.t
  | Vobject of obj
  | Vrange of int * int  (** [lo : hi), a 1-d rectdomain *)

(** The class declaration, its non-[float] fields in [slots] and its
    [float] fields in [floats], each in declaration order; {!slot}
    gives a field's place. *)
and obj = { cls : Ast.class_decl; slots : t array; floats : float array }

(** [Array.init n f] for values, without the minor collection OCaml
    5.1 forces when an array above 256 words starts from a young fill:
    the array starts from [Vnull] and [f] fills it in index order. *)
val init_array : int -> (int -> t) -> t array

val type_name : t -> string

(** Raised on dynamic errors (type confusion, bounds, division by
    zero, unbound names). *)
exception Runtime_error of string

val runtime_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Checked projections; [as_float] widens ints implicitly. *)

val as_int : t -> int
val as_float : t -> float
val as_bool : t -> bool
val as_string : t -> string

(** The boxed elements of an array; a [Vfloats] is boxed into a fresh
    array, so a store into the result does not reach it. *)
val as_array : t -> t array

(** The elements of a [float[]] in either form, as a fresh array: a
    host's readout of a result field. *)
val as_floats : t -> float array

(** Length and element [i] of an array in either form.
    @raise Runtime_error when the value is not an array.
    @raise Invalid_argument when [i] is out of bounds. *)
val array_length : t -> int
val array_get : t -> int -> t
val as_list : t -> t Vec.t
val as_object : t -> obj

(** Where a field sits in objects of its class: [Boxed i] is
    [slots.(i)] and [Flat k] a [float] field at [floats.(k)]. *)
type place = Boxed of int | Flat of int

(** [iter_fields cls f] calls [f ty name place] for each field of
    [cls] in declaration order: the layout every reader and writer of
    an object's parts follows. *)
val iter_fields : Ast.class_decl -> (Ast.ty -> string -> place -> unit) -> unit

(** [slot cls name] is the place of field [name] in objects of [cls].
    @raise Runtime_error when the class declares no such field. *)
val slot : Ast.class_decl -> string -> place

(** [float_slot cls name] is the index of [float] field [name] in
    [floats], where a host stores it directly.
    @raise Runtime_error when the class declares no such [float]
    field. *)
val float_slot : Ast.class_decl -> string -> int

(** The field at a place ({!slot}), a [float] one boxed; [set] unboxes
    into a [float] field (an [int] is widened, as by {!as_float}). *)
val get : obj -> place -> t

val set : obj -> place -> t -> unit

(** Access by name, resolved on every call.
    @raise Runtime_error when the field does not exist. *)
val field : obj -> string -> t

val set_field : obj -> string -> t -> unit

(** The default (zero) value of a declared type: numeric zeros, empty
    lists, [Vnull] for classes and arrays. *)
val zero_of_ty : Ast.ty -> t

(** [make_array ty n] is [new ty[n]]: zero elements, a [float] array in
    the flat form. *)
val make_array : Ast.ty -> int -> t

(** A fresh object of the class with all fields zero-initialized: its
    record, its [slots] and its [floats] ([[||]] when a part has no
    field). *)
val make_object : Ast.class_decl -> obj

(** [maker cls ()] is [make_object cls], with the class's layout
    computed once, when [maker cls] is applied: for code that builds
    many objects of one class. *)
val maker : Ast.class_decl -> unit -> obj

(** Structural deep copy (arrays, lists and objects are duplicated). *)
val deep_copy : t -> t

(** Structural equality (lists compare in order). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
