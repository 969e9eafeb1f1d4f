(** Dolev–Strong authenticated broadcast: Byzantine Broadcast for {e any}
    t < n given a PKI — the classical signature-chain protocol, here used at
    t < n/2 under {!Auth_ba.common_view}, the rule of {!Auth_ba} and
    {!Auth_ca} (the paper's open problem about the authenticated setting).

    Round 1: the sender signs its value and sends it to all. A party that,
    in round r, receives a value carrying valid signatures from r distinct
    parties — the sender first — {e accepts} it and relays it with its own
    signature appended in round r+1. After round t+1, a party that accepted
    exactly one value outputs it; otherwise (an equivocating sender) it
    outputs ⊥. A value accepted by an honest party at round t+1 carries t+1
    signatures, hence one from an honest party who already relayed it — so
    honest accepted-sets coincide.

    Each party tracks and relays at most two values (two accepted values
    already force the ⊥ outcome, a standard optimization that bounds
    communication at O(n³) signatures per instance).

    Complexity: t+1 rounds; O(n²·(ℓ + t·σ)) bits for σ-bit signatures
    (σ ≈ 17 KB with the hash-based {!Xmss} scheme — authenticated protocols
    are communication-expensive, which is the point of the comparison). *)

open Net

let ( let* ) = Proto.( let* )

(* Signed bytes: domain tag, instance, sender, value. Signatures never
   migrate across instances or senders. *)
let signed_bytes ~instance ~sender value =
  Wire.(encode (seq [ w_fixed "DS1"; w_varint instance; w_varint sender; w_bytes value ]))

let encode_link (party, signature) =
  Wire.(encode (w_pair w_varint w_bytes (party, Sigs.Xmss.encode_signature signature)))

let decode_link raw =
  let open Wire in
  decode_full
    (fun cur ->
      let* party = r_varint cur in
      let* sig_raw = r_bytes () cur in
      let* signature = Sigs.Xmss.decode_signature sig_raw in
      Some (party, signature))
    raw

let encode_batch batch =
  Wire.(
    encode
      (w_list (w_pair w_bytes (w_list w_bytes))
         (List.map
            (fun (value, chain) -> (value, List.map encode_link chain))
            batch)))

let decode_batch ~max_chain raw =
  let open Wire in
  match decode_full (r_list ~max:4 (r_pair (r_bytes ()) (r_list ~max:max_chain (r_bytes ())))) raw with
  | None -> None
  | Some entries ->
      let decode_entry (value, links) =
        let links = List.filter_map decode_link links in
        Some (value, links)
      in
      Some (List.filter_map decode_entry entries)

(** A chain is valid for acceptance in round [r] iff it has >= r links from
    distinct parties, the first being [sender], each a valid signature on
    the instance-tagged value. Returns the chain trimmed to exactly [round]
    links: relays stay minimal, so a byzantine-padded chain can never push
    an honest relay past the decoder's length bound. *)
let chain_trim setup ~instance ~sender ~round value chain =
  let msg = signed_bytes ~instance ~sender value in
  let rec go seen count kept = function
    | _ when count = round -> Some (List.rev kept)
    | [] -> None
    | ((party, signature) as link) :: rest ->
        if List.mem party seen then None
        else if not (Setup.verify setup ~party ~msg signature) then None
        else go (party :: seen) (count + 1) (link :: kept) rest
  in
  match chain with
  | (first, _) :: _ when first = sender -> go [] 0 [] chain
  | _ -> None

(** [run setup ctx ~instance ~sender v]: broadcast with t+1 rounds. Returns
    [Some value] when the (unique) accepted value is decided, [None] for ⊥.
    The [ctx] may be built with {!Net.Ctx.make_authenticated} (t < n/2) —
    the protocol itself is sound for any t < n. *)
let run (setup : Setup.t) (ctx : Ctx.t) ~instance ~sender v =
  if sender < 0 || sender >= ctx.Ctx.n then invalid_arg "Dolev_strong.run: bad sender";
  let t = ctx.Ctx.t in
  let accepted : (string, unit) Hashtbl.t = Hashtbl.create 2 in
  let sign value =
    ( ctx.Ctx.me,
      Sigs.Xmss.sign
        (Setup.signer setup ctx.Ctx.me)
        (signed_bytes ~instance ~sender value) )
  in
  Proto.with_label "dolev_strong"
    (let rec rounds r ~outbox =
       if r > t + 1 then
         Proto.return
           (match Hashtbl.fold (fun v () acc -> v :: acc) accepted [] with
           | [ value ] -> Some value
           | _ -> None)
       else
         let* inbox =
           match outbox with
           | [] -> Proto.receive_only ()
           | batch -> Proto.broadcast (encode_batch batch)
         in
         (* Collect newly accepted values from this round's messages. *)
         let fresh = ref [] in
         Array.iter
           (function
             | None -> ()
             | Some raw -> (
                 match decode_batch ~max_chain:(t + 2) raw with
                 | None -> ()
                 | Some entries ->
                     List.iter
                       (fun (value, chain) ->
                         if
                           Hashtbl.length accepted < 2
                           && not (Hashtbl.mem accepted value)
                         then
                           match
                             chain_trim setup ~instance ~sender ~round:r value chain
                           with
                           | None -> ()
                           | Some trimmed ->
                               Hashtbl.add accepted value ();
                               (* Relay with own signature appended. *)
                               fresh := (value, trimmed @ [ sign value ]) :: !fresh)
                       entries))
           inbox;
         rounds (r + 1) ~outbox:!fresh
     in
     let initial =
       if ctx.Ctx.me = sender then begin
         Hashtbl.add accepted v ();
         [ (v, [ sign v ]) ]
       end
       else []
     in
     rounds 1 ~outbox:initial)
