(** Addresses and page arithmetic (4 KiB pages).

    Address spaces: guest virtual (gva), guest physical (gpa), system
    physical (spa) and device DMA — all plain [int]s, kept apart by
    naming and by the distinct page-table types that translate them. *)

val page_shift : int
val page_size : int
val page_mask : int

(** Page frame number of an address. *)
val pfn : int -> int

(** Offset within the page. *)
val offset : int -> int

val of_pfn : int -> int
val is_page_aligned : int -> bool
val align_down : int -> int
val align_up : int -> int

(** Pages covering [len] bytes from [addr] (handles misaligned starts). *)
val pages_spanned : addr:int -> len:int -> int

(** Split a byte range into per-page [(addr, len)] chunks; cross-space
    translation must be per page (§5.2). *)
val page_chunks : addr:int -> len:int -> (int * int) list

val pp_hex : Format.formatter -> int -> unit
