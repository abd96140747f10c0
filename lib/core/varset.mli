(** The value-set domain of the communication analysis (§4.2).

    Gen/Cons/ReqComm sets contain "values": scalar variables, per-element
    fields of collections (what actually crosses a filter boundary is one
    field instance per element), whole collection structures, and
    rectilinear array sections. *)

type item =
  | Var of string                 (** scalar variable *)
  | Coll of string                (** a collection's structure *)
  | ElemField of string * string  (** field [f] of elements of [c] —
                                      also used for fields of plain
                                      object variables *)
  | Arr of string * Section.t     (** rectilinear section of an array *)

(** The variable an item belongs to: the scalar, collection or array
    it names. *)
val base : item -> string

val item_to_string : item -> string

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val items : t -> item list
val of_list : item list -> t

(** Membership; an array section is a member when the stored section
    provably covers it. *)
val mem : item -> t -> bool

(** Insert; array sections with the same base are unioned. *)
val add : item -> t -> t

(** Remove as must-information: arrays lose only provably covered
    sections. *)
val remove : item -> t -> t

val union : t -> t -> t

(** [diff a b] removes [b] from [a] with must-semantics. *)
val diff : t -> t -> t

val fold : (item -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (item -> unit) -> t -> unit
val filter : (item -> bool) -> t -> t
val equal : t -> t -> bool

(** All items referring to collection [c]. *)
val about_collection : string -> t -> t

(** Rename every item's base variable (formal-to-actual mapping in the
    interprocedural analysis). *)
val rename : (string -> string) -> t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
