(* Derived-codec properties: the Wire_spec-derived encoder, decoder and
   sanitizer agree with each other, with the golden corpus captured
   from the hand-written encoders, and with the historical rejection
   behavior (Ropen over-long paths, hostile top-bit-set u64s). *)

module P = Paradice.Proto
module W = Paradice.Wire_spec
module S = Paradice.Snapshot

let unhex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let hex b =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (Bytes.length b) (Bytes.get b)))

(* ---- golden corpus: structured values matching test/golden_gen.ml ---- *)

let golden_reqs =
  [
    ("open", 3, 7, P.Ropen { path = "/dev/input/event0" });
    ("release", 0, 9, P.Rrelease { vfd = 5 });
    ("read", 1, 42, P.Rread { vfd = 3; buf = 0x1234; len = 77 });
    ("write", 2, 42, P.Rwrite { vfd = 4; buf = 0xBEEF00; len = 4096 });
    ( "ioctl", 1, 42,
      P.Rioctl { vfd = 1; cmd = 0xC018640B; arg = 0x1122334455667788L } );
    ("mmap", 4, 11, P.Rmmap { vfd = 2; gva = 0x40000000; len = 8192; pgoff = 256 });
    ("fault", 4, 11, P.Rfault { vfd = 2; gva = 0x40001000 });
    ("munmap", 4, 11, P.Rmunmap { vfd = 2; gva = 0x40000000; len = 8192 });
    ( "poll", 0, 13,
      P.Rpoll { vfd = 9; want_in = true; want_out = false; timeout_us = 123.5 } );
    ("fasync", 0, 13, P.Rfasync { vfd = 4; on = true });
    ("noop", 0, 1, P.Rnoop);
    ( "batch7", 5, 21,
      P.Rbatch
        [
          P.Rnoop;
          P.Rread { vfd = 3; buf = 0x1234; len = 77 };
          P.Rioctl { vfd = 1; cmd = 0xC018640B; arg = 0x1122334455667788L };
          P.Rpoll { vfd = 9; want_in = false; want_out = true; timeout_us = 250. };
          P.Rfasync { vfd = 4; on = false };
          P.Rrelease { vfd = 5 };
          P.Rwrite { vfd = 4; buf = 0xBEEF00; len = 512 };
        ] );
    ("batch32", 6, 22, P.Rbatch (List.init 32 (fun _ -> P.Rnoop)));
  ]

let golden_resps =
  [
    ("ok", P.Rok 123);
    ("ok_big", P.Rok 0x1234567890);
    ("err", P.Rerr 22);
    ("poll_reply", P.Rpoll_reply { pollin = true; pollout = false });
    ( "batch_reply",
      P.Rbatch_reply
        [
          P.Rok 1; P.Rerr 5; P.Rpoll_reply { pollin = false; pollout = true };
          P.Rok 0;
        ] );
  ]

let sample_snap =
  {
    S.ls_guest_vm_id = 7;
    ls_next_vfd = 6;
    ls_ops_served = 420;
    ls_malformed = 1;
    ls_rejected = 2;
    ls_grant_faults = 0;
    ls_quota_breaches = 3;
    ls_score = 11;
    ls_quarantined = false;
    ls_files =
      [
        {
          S.fr_vfd = 1;
          fr_path = "/dev/input/event0";
          fr_fasync = true;
          fr_nonblock = false;
          fr_vmas = [];
        };
        {
          S.fr_vfd = 5;
          fr_path = "/dev/dri/card0";
          fr_fasync = false;
          fr_nonblock = true;
          fr_vmas = [ (0x40000000, 8192, 0); (0x50000000, 4096, 16) ];
        };
      ];
    ls_grants =
      [
        ( 2,
          [
            Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 64 };
            Hypervisor.Grant_table.Copy_from_user { addr = 0x2000; len = 128 };
          ] );
        (5, [ Hypervisor.Grant_table.Map_page { addr = 0x3000; len = 4096 } ]);
      ];
  }

let test_golden_requests () =
  List.iter2
    (fun (name, gref, pid, req) (gname, ggref, gpid, ghex) ->
      Alcotest.(check string) "corpus entry order" gname name;
      Alcotest.(check int) (name ^ " grant_ref") ggref gref;
      Alcotest.(check int) (name ^ " pid") gpid pid;
      let b = P.encode_request ~grant_ref:gref ~pid req in
      Alcotest.(check string) (name ^ " bytes") ghex (hex b);
      (* and the golden bytes decode back to the structured value *)
      let req', gref', pid' = P.decode_request (unhex ghex) in
      Alcotest.(check bool) (name ^ " decodes back") true
        (req' = req && gref' = gref && pid' = pid))
    golden_reqs Golden_corpus.golden_requests

let test_golden_responses () =
  List.iter2
    (fun (name, resp) (gname, ghex) ->
      Alcotest.(check string) "corpus entry order" gname name;
      Alcotest.(check string) (name ^ " bytes") ghex (hex (P.encode_response resp));
      Alcotest.(check bool) (name ^ " decodes back") true
        (P.decode_response (unhex ghex) = resp))
    golden_resps Golden_corpus.golden_responses

let test_golden_snapshot () =
  Alcotest.(check string)
    "snapshot bytes" Golden_corpus.golden_snapshot
    (hex (Bytes.of_string (S.encode sample_snap)));
  Alcotest.(check bool) "snapshot decodes back" true
    (S.decode (Bytes.to_string (unhex Golden_corpus.golden_snapshot))
    = sample_snap)

(* ---- per-opcode round trips over generated messages ---- *)

let limits = P.Fuzz.default_limits

(* encode o decode and decode o encode identity, per opcode: a
   generated request survives the wire exactly, and re-encoding the
   decoded value reproduces the slot byte-for-byte (slots are
   canonical: every non-field word is zero). *)
let test_roundtrip_per_opcode () =
  let rng = Sim.Rng.create ~seed:0x517ECAFEL in
  List.iter
    (fun spec ->
      for _ = 1 to 200 do
        let req = W.generate spec limits rng in
        let grant_ref = Sim.Rng.int rng 4096 in
        let pid = Sim.Rng.int rng 30000 in
        let b = P.encode_request ~grant_ref ~pid req in
        let req', gref', pid' = P.decode_request b in
        if not (req' = req && gref' = grant_ref && pid' = pid) then
          Alcotest.failf "%s: encode/decode mismatch" spec.W.name;
        let b' = P.encode_request ~grant_ref ~pid req' in
        if not (Bytes.equal b b') then
          Alcotest.failf "%s: decode/encode not byte-identical" spec.W.name
      done)
    P.req_specs

let test_response_roundtrip () =
  let rng = Sim.Rng.create ~seed:0xE59L in
  List.iter
    (fun spec ->
      for _ = 1 to 200 do
        let resp = W.generate spec limits rng in
        let b = P.encode_response resp in
        let resp' = P.decode_response b in
        if resp' <> resp then
          Alcotest.failf "resp %s: encode/decode mismatch" spec.W.name;
        if not (Bytes.equal b (P.encode_response resp')) then
          Alcotest.failf "resp %s: decode/encode not byte-identical" spec.W.name
      done)
    P.resp_specs;
  (* batch replies *)
  for n = 1 to P.max_batch_ops do
    let resp =
      P.Rbatch_reply
        (List.init n (fun i ->
             match i mod 3 with
             | 0 -> P.Rok i
             | 1 -> P.Rerr 22
             | _ -> P.Rpoll_reply { pollin = i mod 2 = 0; pollout = true }))
    in
    let b = P.encode_response resp in
    Alcotest.(check bool)
      (Printf.sprintf "batch reply %d round-trips" n)
      true
      (P.decode_response b = resp && Bytes.equal b (P.encode_response resp))
  done

(* Rbatch at the boundary sizes the issue names: 1, 31, 32 round-trip;
   33 is rejected by encoder, decoder and sanitizer alike. *)
let test_batch_sizes () =
  let rng = Sim.Rng.create ~seed:0xBA7C4L in
  let batchables = List.filter (fun s -> s.W.batchable) P.req_specs in
  let gen_sub () =
    W.generate (List.nth batchables (Sim.Rng.int rng (List.length batchables))) limits rng
  in
  List.iter
    (fun n ->
      let req = P.Rbatch (List.init n (fun _ -> gen_sub ())) in
      let b = P.encode_request ~grant_ref:1 ~pid:2 req in
      let req', _, _ = P.decode_request b in
      Alcotest.(check bool) (Printf.sprintf "batch %d round-trips" n) true (req' = req);
      Alcotest.(check bool)
        (Printf.sprintf "batch %d re-encodes identically" n)
        true
        (Bytes.equal b (P.encode_request ~grant_ref:1 ~pid:2 req')))
    [ 1; 31; 32 ];
  let too_big = P.Rbatch (List.init 33 (fun _ -> P.Rnoop)) in
  Alcotest.check_raises "encode rejects batch of 33"
    (Invalid_argument "Proto.encode_request: batch size out of range")
    (fun () -> ignore (P.encode_request ~grant_ref:1 ~pid:2 too_big));
  (* a forged on-wire count of 33 is Malformed at decode *)
  let b = P.encode_request ~grant_ref:1 ~pid:2 (P.Rbatch [ P.Rnoop ]) in
  Bytes.set_int32_le b 12 33l;
  Alcotest.check_raises "decode rejects count 33" (P.Malformed "batch count")
    (fun () -> ignore (P.decode_request b));
  (* and the sanitizer rejects the structured form outright *)
  match
    P.validate_limits ~limits:P.Fuzz.default_limits (too_big, 1, 2)
  with
  | Error { field = "batch"; detail = "count out of range" } -> ()
  | _ -> Alcotest.fail "validate accepted batch of 33"

(* ---- satellite: Ropen encode/decode asymmetry is closed ---- *)

let test_ropen_oversized () =
  List.iter
    (fun n ->
      let path = "/dev/" ^ String.make (n - 5) 'a' in
      Alcotest.(check int) "constructed length" n (String.length path);
      (match P.encode_request ~grant_ref:0 ~pid:1 (P.Ropen { path }) with
      | _ -> Alcotest.failf "encoder accepted %d-byte path" n
      | exception P.Oversized { field = "path"; length; limit = 256 } ->
          Alcotest.(check int) "reported length" n length);
      (* the frontend's pre-slot check refuses the same path *)
      match P.check_request (P.Ropen { path }) with
      | () -> Alcotest.failf "check_request accepted %d-byte path" n
      | exception P.Oversized { field = "path"; length; limit = 256 } ->
          Alcotest.(check int) "check_request reported length" n length)
    [ 257; 2000 ];
  (* the decoder rejects the same lengths (wire word forged) *)
  let b = P.encode_request ~grant_ref:0 ~pid:1 (P.Ropen { path = "/dev/x" }) in
  Bytes.set_int32_le b 12 257l;
  Alcotest.check_raises "decode rejects forged length" (P.Malformed "path length")
    (fun () -> ignore (P.decode_request b));
  (* 256 exactly still fits *)
  let path = "/dev/" ^ String.make 251 'a' in
  let b = P.encode_request ~grant_ref:0 ~pid:1 (P.Ropen { path }) in
  let req, _, _ = P.decode_request b in
  Alcotest.(check bool) "256-byte path round-trips" true (req = P.Ropen { path });
  P.check_request (P.Ropen { path })

(* ---- satellite: hostile top-bit-set u64 into every 64-bit field ---- *)

let test_u64_injection () =
  let rng = Sim.Rng.create ~seed:0x64646464L in
  List.iter
    (fun spec ->
      List.iter
        (fun f ->
          match f.W.kind with
          | W.Int W.U32 | W.Flag | W.Str _ -> ()
          | W.Int W.U63 | W.Raw64 | W.Timeout _ -> (
              let req = W.generate spec limits rng in
              let b = P.encode_request ~grant_ref:1 ~pid:2 req in
              Bytes.set_int64_le b f.W.off 0xFFFF_FFFF_FFFF_FFFFL;
              match P.decode_request b with
              | exception P.Malformed _ ->
                  (* the timeout policy rejects the NaN bit pattern at
                     decode; integer fields must instead surface *)
                  Alcotest.(check bool)
                    (Printf.sprintf "%s.%s rejected at decode is a timeout"
                       spec.W.name f.W.fname)
                    true
                    (match f.W.kind with W.Timeout _ -> true | _ -> false)
              | decoded -> (
                  match f.W.kind with
                  | W.Raw64 ->
                      (* opaque payload: carried through untouched *)
                      Alcotest.(check bool)
                        (Printf.sprintf "%s.%s raw64 carried" spec.W.name
                           f.W.fname)
                        true
                        (match decoded with
                        | P.Rioctl { arg; _ }, _, _ -> arg = -1L
                        | _ -> false)
                  | _ -> (
                      (* u63 policy: wraps negative, sanitizer rejects *)
                      match P.validate_limits ~limits decoded with
                      | Error { field; _ } ->
                          Alcotest.(check string)
                            (Printf.sprintf "%s.%s rejected field" spec.W.name
                               f.W.fname)
                            f.W.fname field
                      | Ok _ ->
                          Alcotest.failf "%s.%s: hostile u64 sanitized Ok"
                            spec.W.name f.W.fname))))
        spec.W.fields)
    P.req_specs

(* the same injection through a batch record: the sub-op's field is
   named by its batch index *)
let test_u64_injection_batched () =
  let sub = P.Rread { vfd = 1; buf = 0x1000; len = 64 } in
  let b = P.encode_request ~grant_ref:1 ~pid:2 (P.Rbatch [ P.Rnoop; sub ]) in
  (* second record starts at 16 + 12 (noop record); its payload words
     sit at +12 from the record, i.e. buf at 40, len at 48 *)
  Bytes.set_int64_le b 48 0xFFFF_FFFF_FFFF_FFFFL;
  let decoded = P.decode_request b in
  match P.validate_limits ~limits decoded with
  | Error { field = "batch[1].len"; detail } ->
      Alcotest.(check string)
        "detail" "transfer larger than max_transfer_bytes" detail
  | Error { field; _ } -> Alcotest.failf "wrong field %s" field
  | Ok _ -> Alcotest.fail "hostile batched u64 sanitized Ok"

(* ---- satellite: single poll-timeout policy, all three historic sites ---- *)

let test_poll_timeout_policy () =
  let mk bits =
    let b =
      P.encode_request ~grant_ref:0 ~pid:1
        (P.Rpoll { vfd = 1; want_in = true; want_out = false; timeout_us = 1.0 })
    in
    Bytes.set_int64_le b 24 bits;
    b
  in
  List.iter
    (fun (name, bits) ->
      Alcotest.check_raises (name ^ " rejected (singleton)")
        (P.Malformed "poll timeout") (fun () -> ignore (P.decode_request (mk bits)));
      (* same policy, batch site: message carries the historic prefix *)
      let bb =
        P.encode_request ~grant_ref:0 ~pid:1
          (P.Rbatch
             [ P.Rpoll { vfd = 1; want_in = true; want_out = false; timeout_us = 1.0 } ])
      in
      (* record at 16, payload at 28; timeout field (singleton off 24)
         sits at 28 + (24 - 16) = 36 *)
      Bytes.set_int64_le bb 36 bits;
      Alcotest.check_raises (name ^ " rejected (batch)")
        (P.Malformed "batch poll timeout") (fun () ->
          ignore (P.decode_request bb)))
    [
      ("nan", Int64.bits_of_float Float.nan);
      ("negative", Int64.bits_of_float (-1.0));
      ("infinity", Int64.bits_of_float Float.infinity);
      ("neg infinity", Int64.bits_of_float Float.neg_infinity);
    ];
  (* the sanitizer still clamps an over-cap finite timeout *)
  let req =
    P.Rpoll { vfd = 1; want_in = true; want_out = false; timeout_us = 1e12 }
  in
  match P.validate_limits ~limits (req, 0, 1) with
  | Ok (P.Rpoll { timeout_us; _ }) ->
      Alcotest.(check (float 0.)) "clamped to cap" limits.W.poll_timeout_cap_us
        timeout_us
  | _ -> Alcotest.fail "over-cap timeout not clamped"

let suites =
  [
    ( "wire_spec",
      [
        Alcotest.test_case "golden corpus: requests byte-identical" `Quick
          test_golden_requests;
        Alcotest.test_case "golden corpus: responses byte-identical" `Quick
          test_golden_responses;
        Alcotest.test_case "golden corpus: snapshot byte-identical" `Quick
          test_golden_snapshot;
        Alcotest.test_case "encode/decode identity per opcode" `Quick
          test_roundtrip_per_opcode;
        Alcotest.test_case "response round trips" `Quick test_response_roundtrip;
        Alcotest.test_case "batch sizes 1/31/32 ok, 33 rejected" `Quick
          test_batch_sizes;
        Alcotest.test_case "oversized open paths rejected at encode" `Quick
          test_ropen_oversized;
        Alcotest.test_case "hostile u64 in every 64-bit field" `Quick
          test_u64_injection;
        Alcotest.test_case "hostile u64 through a batch record" `Quick
          test_u64_injection_batched;
        Alcotest.test_case "one poll-timeout policy at all sites" `Quick
          test_poll_timeout_policy;
      ] );
  ]
