(** I/O Memory Management Unit.

    Translates device DMA addresses to system physical addresses, one
    domain per assigned device.  With plain device assignment the
    hypervisor maps the whole driver-VM memory; with device data
    isolation it starts empty and pages are mapped per-request, each
    tagged with a protected-region ID so the hypervisor can switch the
    active region by unmapping one region's pages and mapping the
    other's (§4.2). *)

type mapping = { spn : int; perms : Perm.t; region : int option }

type t = {
  name : string;
  entries : mapping Int_tbl.t; (* dma pfn -> mapping *)
}

let create ~name = { name; entries = Int_tbl.create 256 }

let name t = t.name

let map t ~dma ~spa ~perms ~region =
  if not (Addr.is_page_aligned dma && Addr.is_page_aligned spa) then
    invalid_arg "Iommu.map: unaligned";
  Int_tbl.replace t.entries (Addr.pfn dma) { spn = Addr.pfn spa; perms; region }

let unmap t ~dma = Int_tbl.remove t.entries (Addr.pfn dma)

(* Returned by a lookup miss, and probed for by physical equality. *)
let unmapped = { spn = -1; perms = Perm.none; region = None }

let translate t ~dma ~access =
  let m = Int_tbl.find_default t.entries (Addr.pfn dma) unmapped in
  if m == unmapped then Fault.iommu_fault ~addr:dma ~access "no IOMMU mapping"
  else if Perm.allows m.perms access then Addr.of_pfn m.spn lor Addr.offset dma
  else Fault.iommu_fault ~addr:dma ~access "permission denied"

let translate_opt t ~dma ~access =
  match translate t ~dma ~access with
  | spa -> Some spa
  | exception Fault.Iommu_fault _ -> None

(** DMA pfns currently mapped for a given region tag. *)
let pfns_of_region t region =
  Int_tbl.fold
    (fun dma_pfn m acc -> if m.region = Some region then dma_pfn :: acc else acc)
    t.entries []

(** Remove every mapping tagged with [region]; returns how many were
    dropped.  This is the expensive half of a region switch. *)
let unmap_region t region =
  let victims = pfns_of_region t region in
  List.iter (Int_tbl.remove t.entries) victims;
  List.length victims

let mapping_count t = Int_tbl.length t.entries

let iter t f = Int_tbl.iter (fun dma_pfn m -> f ~dma_pfn m) t.entries
