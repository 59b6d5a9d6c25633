(** Extended page tables: guest physical → system physical.

    One instance per VM, owned exclusively by the hypervisor (§2.3).
    Besides translation, the EPT is the enforcement point for device
    data isolation: the hypervisor strips read (and, since x86 has no
    write-only mappings, also write) permissions from protected-region
    pages mapped into the driver VM (§4.2, §5.3). *)

type t = { table : Radix_table.t }

let widths = [ 9; 9; 9; 9 ] (* four levels, as on x86-64 EPT *)

let create () = { table = Radix_table.create ~widths }

let map t ~gpa ~spa ~perms =
  if not (Addr.is_page_aligned gpa && Addr.is_page_aligned spa) then
    invalid_arg "Ept.map: unaligned";
  Radix_table.map t.table ~vfn:(Addr.pfn gpa) ~pfn:(Addr.pfn spa) ~perms

(** Contiguous mapping for VM RAM, BARs and shared rings: one 2 MiB
    leaf per aligned span the range covers whole. *)
let map_range t ~gpa ~spa ~pages ~perms =
  if not (Addr.is_page_aligned gpa && Addr.is_page_aligned spa) then
    invalid_arg "Ept.map_range: unaligned";
  Radix_table.map_range t.table ~vfn:(Addr.pfn gpa) ~pfn:(Addr.pfn spa) ~count:pages ~perms

let unmap t ~gpa = Radix_table.unmap t.table (Addr.pfn gpa)

let translate_leaf t ~gpa ~access =
  match Radix_table.walk t.table (Addr.pfn gpa) with
  | Radix_table.Mapped { target_pfn; perms } ->
      if Perm.allows perms access then
        (Addr.of_pfn target_pfn lor Addr.offset gpa, perms)
      else Fault.ept_violation ~addr:gpa ~access "permission denied"
  | Radix_table.Missing_level _ | Radix_table.Not_present ->
      Fault.ept_violation ~addr:gpa ~access "not mapped"

let translate t ~gpa ~access = fst (translate_leaf t ~gpa ~access)

let translate_opt t ~gpa ~access =
  match translate t ~gpa ~access with
  | spa -> Some spa
  | exception Fault.Ept_violation _ -> None

(** Look up the mapping regardless of permissions (hypervisor-internal:
    the hypervisor's own copies bypass EPT permission checks, which
    constrain only the VM). *)
let lookup t ~gpa =
  Option.map
    (fun leaf ->
      (Addr.of_pfn leaf.Radix_table.target_pfn lor Addr.offset gpa,
       leaf.Radix_table.perms))
    (Radix_table.lookup t.table (Addr.pfn gpa))

let set_perms t ~gpa ~perms =
  Radix_table.set_perms t.table ~vfn:(Addr.pfn gpa) ~perms

(** Mutation counter for software-TLB invalidation (see
    {!Radix_table.generation}); map/map_range/unmap/set_perms all bump
    it. *)
let generation t = Radix_table.generation t.table

(** Reverse lookup: all guest-physical pages mapping to [spn].  Linear
    in the number of mappings; used only by isolation setup, never on
    hot paths. *)
let gpas_of_spn t spn =
  let acc = ref [] in
  Radix_table.iter t.table (fun vfn leaf ->
      if leaf.Radix_table.target_pfn = spn then acc := Addr.of_pfn vfn :: !acc);
  List.rev !acc

let iter t f =
  Radix_table.iter t.table (fun vfn leaf ->
      f ~gpa:(Addr.of_pfn vfn)
        ~spa:(Addr.of_pfn leaf.Radix_table.target_pfn)
        ~perms:leaf.Radix_table.perms)
