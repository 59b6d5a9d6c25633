(** Hash table with [int] keys: the subset of [Hashtbl] the data path
    uses, with no polymorphic hashing or comparison.  {!hash} equals
    [Hashtbl.hash] on every int and the bucket and resize rules are the
    stdlib's, so {!iter} and {!fold} visit bindings in exactly the
    order a [(int, 'a) Hashtbl.t] fed the same calls would. *)

type 'a t

(** [Hashtbl.hash k], computed without a C call. *)
val hash : int -> int

val create : int -> 'a t
val length : 'a t -> int
val reset : 'a t -> unit
val add : 'a t -> int -> 'a -> unit
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val find : 'a t -> int -> 'a
val find_opt : 'a t -> int -> 'a option

(** [find_default t k d] is the binding of [k], or [d]: a lookup that
    allocates nothing. *)
val find_default : 'a t -> int -> 'a -> 'a

val mem : 'a t -> int -> bool
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
