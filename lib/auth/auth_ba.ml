(** Authenticated multivalued Byzantine Agreement for t < n/2 — the
    quorum-certificate backend of the Π_BA substrate seam, in the spirit of
    Momose–Ren ("Optimal Communication Complexity of Authenticated Byzantine
    Agreement") and Spiegelman ("In Search for an Optimal Authenticated BA"):
    a view-by-view leader protocol whose safety rests on one fact available
    only past n/3 — with t < n/2, every certificate of n−t signatures
    contains at least one honest signature.

    Structure (4t + 7 rounds, O(n²) messages per view):

    + {b Input round}: every party broadcasts its signed input.  A value with
      n−t distinct signed inputs forms an {e input certificate}; a second
      round exchanges the certificates parties assembled, so any honestly
      assembled certificate is known to every would-be leader.
    + {b Views 1..t+1} (leader = view − 1), four rounds each:
      {e status} — every party rebroadcasts its current lock certificate;
      {e propose} — the leader broadcasts a value justified by the
      highest-view lock certificate it knows, else by an input certificate,
      else bare (its own input);
      {e vote} — a party accepts a proposal whose justification dominates its
      own lock (a bare proposal only if it is unlocked {e and} assembled no
      input certificate itself) and broadcasts a signed vote;
      {e certify} — n−t distinct votes on (view, value) form a {e lock
      certificate}; parties adopt it as their lock and rebroadcast it.
    + {b Resolution round}: locks are broadcast once more and every party
      adopts the highest-view certificate it sees; the output is the locked
      value, or the spec's default if no value was ever certified.

    Correctness sketch (t < n/2): in the first honest-leader view v* the
    leader's justification dominates every honest lock (statuses are
    broadcast) and is acceptable to all — if no honest party is locked and
    none assembled an input certificate, the bare fallback is accepted by
    construction — so all honest parties vote, certify and lock (v*, x).
    From then on no certificate for y ≠ x can form (it would need an honest
    vote, but locked parties only accept justifications of view ≥ v*, which
    inductively only exist for x), so the resolution round converges on x
    regardless of which certificates byzantine parties reveal late.
    Validity: under honest unanimity on v only v can gather an input
    certificate and every honest party rejects bare proposals (it assembled
    v's certificate itself), so only v can ever be voted.  Over a two-value
    domain the output is always an honest input or the (in-domain) default —
    the Lemma 2 property ADDLASTBIT / GETOUTPUT / Π_ℤ need.

    Signatures are domain-separated per instance; a party spends at most
    t + 2 one-time keys per instance ([signatures_per_instance]). *)

open Net

let ( let* ) = Proto.( let* )

(* One signed input plus at most one signed vote per view. *)
let signatures_per_instance ~t = t + 2

(* Signed bodies, domain-separated from Dolev–Strong ("DS1") and across
   instances/views. *)
let input_body ~instance value =
  Wire.(encode (seq [ w_fixed "ABA"; w_varint instance; w_fixed "i"; w_bytes value ]))

let vote_body ~instance ~view value =
  Wire.(
    encode
      (seq [ w_fixed "ABA"; w_varint instance; w_fixed "v"; w_varint view; w_bytes value ]))

(* A certificate: [view = 0] is an input certificate (quorum of signed
   inputs), [view >= 1] a lock certificate (quorum of signed votes on
   (view, value)). [sigs] holds (party, encoded signature) with strictly
   ascending party ids — ascent is the distinctness check. *)
type cert = { view : int; value : string; sigs : (int * string) list }

let encode_cert c =
  Wire.(
    encode
      (seq [ w_varint c.view; w_bytes c.value; w_list (w_pair w_varint w_bytes) c.sigs ]))

let decode_cert ~n raw =
  let open Wire in
  decode_full
    (fun cur ->
      let* view = r_varint cur in
      let* value = r_bytes () cur in
      let* sigs = r_list ~max:n (r_pair r_varint (r_bytes ())) cur in
      Some { view; value; sigs })
    raw

let cert_valid (setup : Setup.t) ~instance ~n ~quorum ~max_view ~decodes c =
  c.view >= 0 && c.view <= max_view
  && decodes c.value
  &&
  let body =
    if c.view = 0 then input_body ~instance c.value
    else vote_body ~instance ~view:c.view c.value
  in
  let ok, count, _ =
    List.fold_left
      (fun (ok, count, prev) (party, sig_raw) ->
        if (not ok) || party <= prev || party >= n then (false, 0, 0)
        else
          match Sigs.Xmss.decode_signature sig_raw with
          | Some s when Sigs.Xmss.verify ~public:setup.pki.(party) ~msg:body s ->
              (true, count + 1, party)
          | Some _ | None -> (false, 0, 0))
      (true, 0, -1) c.sigs
  in
  ok && count >= quorum

(* Signed (value, signature) wire messages — input and vote rounds. *)
let encode_signed value sig_raw = Wire.(encode (w_pair w_bytes w_bytes (value, sig_raw)))

let r_signed = Wire.(r_pair (r_bytes ()) (r_bytes ()))

(* Group an inbox of signed (value, sig) messages by value, keeping only
   signatures that verify for their sender slot: value -> (party, sig)
   entries in descending party order (senders are scanned ascending). *)
let collect_signed (setup : Setup.t) ~body inbox =
  let acc = ref [] in
  Array.iteri
    (fun sender slot ->
      match slot with
      | None -> ()
      | Some raw -> (
          match Wire.decode_full r_signed raw with
          | None -> ()
          | Some (value, sig_raw) -> (
              match Sigs.Xmss.decode_signature sig_raw with
              | Some s
                when Sigs.Xmss.verify ~public:setup.pki.(sender) ~msg:(body value) s ->
                  let cur = Option.value ~default:[] (List.assoc_opt value !acc) in
                  acc := (value, (sender, sig_raw) :: cur) :: List.remove_assoc value !acc
              | Some _ | None -> ())))
    inbox;
  !acc

(* The (unique, if any: 2(n−t) > n) quorum-supported value of a collected
   inbox, as a certificate. *)
let quorum_cert ~quorum ~view ~decodes collected =
  List.find_map
    (fun (value, entries) ->
      if List.length entries >= quorum && decodes value then
        Some { view; value; sigs = List.rev entries }
      else None)
    collected

let run (setup : Setup.t) (spec : 'v Ba.Substrate.spec) (ctx : Ctx.t) ~instance (input : 'v) :
    'v Proto.m =
  let n = ctx.Ctx.n and t = ctx.Ctx.t and me = ctx.Ctx.me in
  if Array.length setup.pki <> n || Array.length setup.signers <> n then
    invalid_arg "Auth_ba.run: setup size mismatch";
  if 2 * t >= n then invalid_arg "Auth_ba.run: requires t < n/2";
  let quorum = Ctx.quorum ctx in
  let max_view = t + 1 in
  let enc_input = spec.encode input in
  let decodes v = Option.is_some (spec.decode v) in
  let cert_valid c = cert_valid setup ~instance ~n ~quorum ~max_view ~decodes c in
  Proto.with_label "auth_ba"
    ((* Input round: broadcast the signed input, assemble an input
        certificate if some value reaches quorum in this inbox. *)
     let sig1 = Sigs.Xmss.sign setup.signers.(me) (input_body ~instance enc_input) in
     let* inbox1 =
       Proto.broadcast (encode_signed enc_input (Sigs.Xmss.encode_signature sig1))
     in
     let my_input_cert =
       quorum_cert ~quorum ~view:0 ~decodes
         (collect_signed setup ~body:(input_body ~instance) inbox1)
     in
     (* Certificate-exchange round: every honestly assembled input
        certificate reaches every would-be leader. *)
     let* inbox2 =
       match my_input_cert with
       | Some c -> Proto.broadcast (encode_cert c)
       | None -> Proto.receive_only ()
     in
     let known_input_cert = ref my_input_cert in
     Array.iter
       (function
         | None -> ()
         | Some raw -> (
             match decode_cert ~n raw with
             | Some c when c.view = 0 && cert_valid c -> (
                 (* Deterministic leader choice: keep the smallest value. *)
                 match !known_input_cert with
                 | Some best when String.compare best.value c.value <= 0 -> ()
                 | _ -> known_input_cert := Some c)
             | _ -> ()))
       inbox2;
     (* The lock: highest-view certificate adopted so far, with its raw
        encoding for rebroadcast. *)
     let lock = ref None in
     let adopt c raw =
       if c.view >= 1 then
         match !lock with
         | Some (w, _, _) when w >= c.view -> ()
         | _ -> lock := Some (c.view, c.value, raw)
     in
     let adopt_from_inbox inbox =
       Array.iter
         (function
           | None -> ()
           | Some raw -> (
               match decode_cert ~n raw with
               | Some c when cert_valid c -> adopt c raw
               | _ -> ()))
         inbox
     in
     let rec view_loop w =
       if w > max_view then Proto.return ()
       else begin
         let leader = w - 1 in
         (* Acceptance compares against the lock as of view start — the
            certificate this party broadcasts in the status round — so a
            selectively delivered status certificate cannot desynchronize
            a party from an honest leader's justification. *)
         let snapshot = match !lock with Some (v, _, _) -> v | None -> 0 in
         let* status_inbox =
           match !lock with
           | Some (_, _, raw) -> Proto.broadcast raw
           | None -> Proto.receive_only ()
         in
         adopt_from_inbox status_inbox;
         (* Propose: the leader's lock (after absorbing statuses) dominates
            every honest snapshot; without locks, fall back to an input
            certificate, else to the bare input. Kinds: 0 bare, 1 input
            cert, 2 lock cert. *)
         let proposal =
           if me <> leader then None
           else
             Some
               (match !lock with
               | Some (_, value, raw) ->
                   Wire.(encode (seq [ w_u8 2; w_bytes value; w_bytes raw ]))
               | None -> (
                   match !known_input_cert with
                   | Some c ->
                       Wire.(
                         encode (seq [ w_u8 1; w_bytes c.value; w_bytes (encode_cert c) ]))
                   | None -> Wire.(encode (seq [ w_u8 0; w_bytes enc_input; w_bytes "" ]))))
         in
         let* prop_inbox = Proto.exchange (fun _ -> proposal) in
         let accepted =
           match prop_inbox.(leader) with
           | None -> None
           | Some raw -> (
               let decoded =
                 Wire.(decode_full (r_pair r_u8 (r_pair (r_bytes ()) (r_bytes ()))) raw)
               in
               match decoded with
               | None -> None
               | Some (kind, (value, cert_raw)) ->
                   if not (decodes value) then None
                   else begin
                     match kind with
                     | 0 ->
                         (* Bare: only for parties that are unlocked and
                            assembled no input certificate themselves —
                            exactly the parties an honest bare leader is
                            guaranteed acceptable to. *)
                         if snapshot = 0 && my_input_cert = None then Some value
                         else None
                     | 1 -> (
                         match decode_cert ~n cert_raw with
                         | Some c
                           when c.view = 0
                                && String.equal c.value value
                                && snapshot = 0 && cert_valid c ->
                             Some value
                         | _ -> None)
                     | 2 -> (
                         match decode_cert ~n cert_raw with
                         | Some c
                           when c.view >= 1
                                && String.equal c.value value
                                && c.view >= snapshot && cert_valid c ->
                             Some value
                         | _ -> None)
                     | _ -> None
                   end)
         in
         let* vote_inbox =
           match accepted with
           | Some value ->
               let s = Sigs.Xmss.sign setup.signers.(me) (vote_body ~instance ~view:w value) in
               Proto.broadcast (encode_signed value (Sigs.Xmss.encode_signature s))
           | None -> Proto.receive_only ()
         in
         let formed =
           quorum_cert ~quorum ~view:w ~decodes
             (collect_signed setup ~body:(vote_body ~instance ~view:w) vote_inbox)
         in
         (match formed with Some c -> adopt c (encode_cert c) | None -> ());
         let* cert_inbox =
           match formed with
           | Some c -> Proto.broadcast (encode_cert c)
           | None -> Proto.receive_only ()
         in
         adopt_from_inbox cert_inbox;
         view_loop (w + 1)
       end
     in
     let* () = view_loop 1 in
     (* Resolution round: late, selectively revealed certificates cannot
        split the output — past the first honest-leader view every
        certificate carries the same value. *)
     let* final_inbox =
       match !lock with
       | Some (_, _, raw) -> Proto.broadcast raw
       | None -> Proto.receive_only ()
     in
     adopt_from_inbox final_inbox;
     match !lock with
     | Some (_, value, _) -> (
         match spec.decode value with
         | Some v -> Proto.return v
         | None -> Proto.return spec.default)
     | None -> Proto.return spec.default)

let rounds ~t = (4 * t) + 7

(* Signing budget for a protocol expected to open [instances] agreement
   instances at corruption bound [t] (each instance spends ≤ t+2 keys). *)
let required_capacity ~t ~instances = instances * signatures_per_instance ~t

(* The substrate view: a fresh first-class module per protocol run.  The
   embedded instance counter advances identically at every party — honest
   parties open BA instances in a common order because they branch only on
   agreed data — so signatures stay domain-separated without an instance
   parameter in the seam.  Use one substrate (and one fresh {!Setup}) per
   protocol run; instance tags restart at 0 for each substrate. *)
let substrate (s : Setup.t) : (module Ba.Substrate.S) =
  let next_instance = ref 0 in
  (module struct
    let name = "auth-quorum"
    let assumption = `Authenticated
    let max_t ~n = (n - 1) / 2
    let rounds (ctx : Net.Ctx.t) = rounds ~t:ctx.Net.Ctx.t

    (* Certificate rounds dominate: O(n²) messages per round, each carrying
       up to a quorum of signatures.  An order-of-magnitude model, not an
       accounting identity. *)
    let bits_estimate (ctx : Net.Ctx.t) ~value_bits =
      let n = ctx.Net.Ctx.n in
      rounds ctx * n * n
      * (value_bits + (8 * Net.Ctx.quorum ctx * Sigs.Xmss.signature_bytes))

    (* The certificate exchange runs to its worst-case schedule regardless
       of how many corruptions materialize: flat in f. *)
    let cost ctx ~value_bits ~f =
      {
        Ba.Substrate.c_f = f;
        c_bits = bits_estimate ctx ~value_bits;
        c_rounds = rounds ctx;
      }

    let run spec ctx v =
      let instance = !next_instance in
      incr next_instance;
      Proto.run (run s spec ctx ~instance v)

    let run_bit ctx b = run Ba.Phase_king.bit_spec ctx b
    let run_bytes ctx v = run Ba.Phase_king.bytes_spec ctx v
    let run_option ctx v = run Ba.Phase_king.option_spec ctx v
  end)
