(** Runtime values of the PipeLang interpreter. *)

(** Growable vector, used for [List<T>] collections. *)
module Vec : sig
  type 'a t

  val create : unit -> 'a t
  val of_list : 'a list -> 'a t

  (** A vector over [a] itself, not a copy. *)
  val of_array : 'a array -> 'a t

  val length : 'a t -> int

  (** @raise Invalid_argument on out-of-bounds access. *)
  val get : 'a t -> int -> 'a

  val set : 'a t -> int -> 'a -> unit
  val push : 'a t -> 'a -> unit
  val clear : 'a t -> unit
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
  | Vlist of t Vec.t
  | Vobject of obj
  | Vrange of int * int  (** [lo : hi), a 1-d rectdomain *)

and obj = { ocls : string; ofields : (string, t) Hashtbl.t }

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
val as_array : t -> t array
val as_list : t -> t Vec.t
val as_object : t -> obj

(** @raise Runtime_error when the field does not exist. *)
val field : obj -> string -> t

val set_field : obj -> string -> t -> unit

(** The default (zero) value of a declared type: numeric zeros, empty
    lists, [Vnull] for classes and arrays. *)
val zero_of_ty : Ast.ty -> t

(** A fresh object of the class with all fields zero-initialized. *)
val make_object : Ast.class_decl -> obj

(** Structural deep copy (arrays, lists and objects are duplicated). *)
val deep_copy : t -> t

(** Structural equality (lists compare in order). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
