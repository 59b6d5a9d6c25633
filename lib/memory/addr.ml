(** Addresses and page arithmetic.

    Three address spaces exist in the simulated machine, mirroring the
    paper's terminology (§2.3):
    - {b guest virtual} (gva): what a process inside a VM uses;
    - {b guest physical} (gpa): what a VM's kernel believes is physical;
    - {b system physical} (spa): real frames in {!Phys_mem}.

    Device DMA addresses form a fourth space translated by the IOMMU.
    All are plain [int]s; the naming convention ([gva]/[gpa]/[spa]/
    [dma]) plus the distinct page-table types keep the spaces apart. *)

let page_shift = 12
let page_size = 1 lsl page_shift (* 4096, matching x86 *)
let page_mask = page_size - 1

(** Page frame number of an address. *)
let pfn addr = addr lsr page_shift

(** Offset within the page. *)
let offset addr = addr land page_mask

let of_pfn pfn = pfn lsl page_shift

let is_page_aligned addr = offset addr = 0

let align_down addr = addr land lnot page_mask
let align_up addr = align_down (addr + page_mask)

(** Number of pages needed to cover [len] bytes starting at [addr]
    (accounts for a misaligned start). *)
let pages_spanned ~addr ~len =
  if len <= 0 then 0 else pfn (addr + len - 1) - pfn addr + 1

(** Split a byte range into per-page chunks [(addr, len)]; translations
    must be performed per page because contiguity in one address space
    implies nothing about the next (§5.2). *)
let page_chunks ~addr ~len =
  let rec go addr remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let in_page = page_size - offset addr in
      let chunk = min in_page remaining in
      go (addr + chunk) (remaining - chunk) ((addr, chunk) :: acc)
    end
  in
  go addr len []

let pp_hex ppf addr = Fmt.pf ppf "0x%x" addr
