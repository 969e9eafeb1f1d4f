(* The authenticated t < n/2 BA substrate (Auth_ba): agreement and validity
   of n parallel Dolev-Strong broadcasts plus the (t+1)-th smallest of the
   common view, under adversaries up to the n/2 bound, and the substrate
   view of the seam. *)

open Net

(* Fresh per run: XMSS signers are stateful. *)
let fresh_setup ?(seed = 27182) ~n ~capacity () =
  Auth.Setup.generate ~seed ~n ~capacity

let bytes_spec = Ba.Phase_king.bytes_spec

let run_ba ~n ~t ~corrupt ~adversary inputs =
  let setup =
    fresh_setup ~n ~capacity:(Auth.Auth_ba.required_capacity ~n ~instances:1) ()
  in
  Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Auth.Auth_ba.run setup bytes_spec ctx ~instance:0 inputs.(ctx.Ctx.me)))

let check_agreement ~corrupt outcome =
  match Sim.honest_outputs ~corrupt outcome with
  | [] -> Alcotest.fail "no honest parties"
  | v :: rest ->
      List.iter (Alcotest.check Alcotest.string "agreement" v) rest;
      v

let adversaries =
  [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed:5;
    Adversary.bitflip ~seed:6; Adversary.equivocate ~seed:7 ]

let test_validity_unanimous () =
  (* t < n/2, beyond the n/3 bound: n = 5, t = 2. Honest unanimity must
     survive every adversary: the common value fills at least t+1 of the
     view's entries and at most t sort on either side of it. *)
  let n = 5 and t = 2 in
  let corrupt = [| false; false; false; true; true |] in
  let inputs = Array.make n "honest-value" in
  List.iter
    (fun adversary ->
      let outcome = run_ba ~n ~t ~corrupt ~adversary inputs in
      let v = check_agreement ~corrupt outcome in
      Alcotest.check Alcotest.string
        (Printf.sprintf "unanimity vs %s" adversary.Adversary.name)
        "honest-value" v)
    adversaries

let test_agreement_mixed_inputs () =
  (* Honest inputs disagree: the output must still be common, and sorts
     between two honest inputs. A byte-level adversary cannot sign a value
     for a corrupt sender, so each corrupt entry of the view is its prescribed
     "zzz" or absent, and the output is an honest input. *)
  let n = 5 and t = 2 in
  let corrupt = [| false; true; false; true; false |] in
  let inputs = [| "alpha"; "zzz"; "beta"; "zzz"; "gamma" |] in
  List.iter
    (fun adversary ->
      let outcome = run_ba ~n ~t ~corrupt ~adversary inputs in
      let v = check_agreement ~corrupt outcome in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "output in honest inputs or default vs %s"
           adversary.Adversary.name)
        true
        (List.mem v [ "alpha"; "beta"; "gamma"; bytes_spec.Ba.Phase_king.default ]))
    adversaries

let test_forged_signatures_rejected () =
  (* The corrupt parties hold "forged" and send their prescribed messages
     with every embedded signature broken, or with "target" and "forged"
     swapped under the untouched signatures: honest parties must drop the
     forgeries and still reach unanimity on their common input. *)
  let n = 5 and t = 2 in
  let corrupt = [| false; false; false; true; true |] in
  let inputs = Array.init n (fun i -> if corrupt.(i) then "forged" else "target") in
  let adversary = Test_substrate.forged_signatures ~values:[ "target"; "forged" ] in
  let outcome = run_ba ~n ~t ~corrupt ~adversary inputs in
  let v = check_agreement ~corrupt outcome in
  Alcotest.check Alcotest.string "forgeries ignored" "target" v

let test_binary_domain_honest_input () =
  (* Over the {"0","1"} domain the output sorts between two honest inputs,
     so it is one of them (Lemma 2). With unanimous honest "1" it must be
     "1", whatever the corrupt parties' "0"s. *)
  let n = 5 and t = 2 in
  let corrupt = [| true; false; false; true; false |] in
  let inputs = [| "0"; "1"; "1"; "0"; "1" |] in
  let outcome = run_ba ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:11) inputs in
  let v = check_agreement ~corrupt outcome in
  Alcotest.check Alcotest.string "unanimous honest bit survives" "1" v

let test_rounds_model () =
  let n = 5 and t = 2 in
  let corrupt = Array.make n false in
  let inputs = Array.make n "r" in
  let outcome = run_ba ~n ~t ~corrupt ~adversary:Adversary.passive inputs in
  Alcotest.check Alcotest.int "t+1 rounds" (Auth.Auth_ba.rounds ~t)
    outcome.Sim.metrics.Metrics.rounds

let test_substrate_pi_z () =
  (* The seam end-to-end: Π_ℤ functorized over the authenticated substrate
     (still t < n/3 for the CA core) agrees and stays within the honest
     hull. Each party builds its substrate inside the protocol closure so
     the embedded instance counters advance in lockstep. *)
  let n = 4 and t = 1 in
  let corrupt = [| false; false; false; true |] in
  let inputs = [| Bigint.of_int (-7); Bigint.of_int 3; Bigint.of_int 5; Bigint.of_int 999 |] in
  let setup =
    fresh_setup ~n ~capacity:(Auth.Auth_ba.required_capacity ~n ~instances:64) ()
  in
  let outcome =
    Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:13)
      (fun ctx ->
        let module B = (val Auth.Auth_ba.substrate setup) in
        let module CA = Convex.Ca_int.Make (B) in
        CA.run ctx inputs.(ctx.Ctx.me))
  in
  match Sim.honest_outputs ~corrupt outcome with
  | [] -> Alcotest.fail "no honest parties"
  | v :: rest ->
      List.iter
        (fun w -> Alcotest.check Alcotest.bool "agreement" true (Bigint.equal v w))
        rest;
      Alcotest.check Alcotest.bool "convex validity" true
        (Bigint.compare (Bigint.of_int (-7)) v <= 0
        && Bigint.compare v (Bigint.of_int 5) <= 0)

let test_capacity_model () =
  (* The documented signing budget is sufficient: a full run at t = 2 spends
     at most 2n keys per party per instance (Xmss.sign raises past it). *)
  let n = 5 and t = 2 in
  let corrupt = Array.make n false in
  let inputs = [| "a"; "b"; "c"; "d"; "e" |] in
  let setup = fresh_setup ~n ~capacity:(Auth.Auth_ba.required_capacity ~n ~instances:1) () in
  let outcome =
    Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Proto.run (Auth.Auth_ba.run setup bytes_spec ctx ~instance:0 inputs.(ctx.Ctx.me)))
  in
  ignore (check_agreement ~corrupt outcome);
  for i = 0 to n - 1 do
    Alcotest.check Alcotest.bool "within budget" true
      (Sigs.Xmss.remaining (Auth.Setup.signer setup i) >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Authenticated protocols under the engine runtimes                   *)
(* ------------------------------------------------------------------ *)

(* K sessions of the authenticated CA (Dolev-Strong based, t < n/2), each
   with its own fresh setup — XMSS signers are stateful, and the spec list
   is rebuilt per backend so sim and poll both start from virgin keys
   (Setup.generate is deterministic in the seed, so the runs are
   comparable). *)
let auth_ca_specs ~n ~sessions ~adversary_of =
  List.init sessions (fun k ->
      let setup = Auth.Setup.generate ~seed:(500 + k) ~n ~capacity:(4 * n) in
      let rng = Prng.create (900 + k) in
      let bits = 16 in
      let inputs =
        Array.map (Bitstring.pad_to bits)
          (Array.init n (fun _ -> Bitstring.of_int (100 + Prng.int rng 40)))
      in
      Engine.session ~adversary:(adversary_of k) ~setup:`Authenticated ~sid:k
        (fun ctx -> Proto.run (Auth.Auth_ca.run setup ctx ~bits inputs.(ctx.Ctx.me))))

let engine_digest outcome =
  List.map
    (fun r ->
      ( r.Engine.r_sid,
        Array.map (Option.map Bitstring.to_string) r.Engine.r_outputs,
        r.Engine.r_metrics.Metrics.rounds,
        r.Engine.r_metrics.Metrics.honest_bits,
        r.Engine.r_admitted_at,
        r.Engine.r_retired_at ))
    outcome.Engine.sessions

let test_engine_auth_ca_sim_eq_poll () =
  let n = 4 and t = 1 and sessions = 8 in
  let corrupt = [| false; false; true; false |] in
  let adversary_of k = Adversary.equivocate ~seed:(50 + k) in
  let run backend =
    let specs = auth_ca_specs ~n ~sessions ~adversary_of in
    engine_digest
      (match backend with
      | `Sim -> Engine.run_sim ~n ~t ~corrupt specs
      | `Poll -> Engine.run_poll ~n ~t ~corrupt specs)
  in
  let sim = run `Sim and poll = run `Poll in
  List.iter2
    (fun (sid_a, out_a, rounds_a, bits_a, adm_a, ret_a)
         (sid_b, out_b, rounds_b, bits_b, adm_b, ret_b) ->
      Alcotest.check Alcotest.int "sid" sid_a sid_b;
      Alcotest.check
        (Alcotest.array (Alcotest.option Alcotest.string))
        (Printf.sprintf "outputs of sid %d byte-identical" sid_a)
        out_a out_b;
      Alcotest.check Alcotest.int "rounds" rounds_a rounds_b;
      Alcotest.check Alcotest.int "honest bits" bits_a bits_b;
      Alcotest.check Alcotest.int "admitted" adm_a adm_b;
      Alcotest.check Alcotest.int "retired" ret_a ret_b)
    sim poll

let test_engine_dolev_strong_sessions () =
  (* Dolev-Strong broadcast sessions multiplexed by the engine: every honest
     party of every session outputs the honest sender's value, identically
     under sim and poll. *)
  let n = 4 and t = 1 and sessions = 8 in
  let corrupt = [| false; false; false; true |] in
  let specs () =
    List.init sessions (fun k ->
        let setup = Auth.Setup.generate ~seed:(700 + k) ~n ~capacity:8 in
        let value = Printf.sprintf "payload-%d" k in
        Engine.session
          ~adversary:(Adversary.garbage ~seed:(60 + k))
          ~setup:`Authenticated ~sid:k
          (fun ctx ->
            Proto.run
              (Auth.Dolev_strong.run setup ctx ~instance:0 ~sender:0
                (if ctx.Ctx.me = 0 then value else ""))))
  in
  let digest outcome =
    List.map
      (fun r -> (r.Engine.r_sid, r.Engine.r_outputs))
      outcome.Engine.sessions
  in
  let sim = digest (Engine.run_sim ~n ~t ~corrupt (specs ())) in
  let poll = digest (Engine.run_poll ~n ~t ~corrupt (specs ())) in
  List.iter2
    (fun (sid, out_sim) (_, out_poll) ->
      Array.iteri
        (fun i o ->
          if not corrupt.(i) then
            Alcotest.check
              (Alcotest.option (Alcotest.option Alcotest.string))
              (Printf.sprintf "sid %d party %d validity" sid i)
              (Some (Some (Printf.sprintf "payload-%d" sid)))
              o)
        out_sim;
      Alcotest.check Alcotest.bool
        (Printf.sprintf "sid %d sim = poll" sid)
        true (out_sim = out_poll))
    sim poll

let test_engine_auth_ca_forged_sigs () =
  (* A forging adversary under the engine: replaces every corrupted party's
     message with a signature-shaped blob. Honest outputs must still agree
     and sit in the honest input range, on both runtimes. *)
  let n = 4 and t = 1 and sessions = 4 in
  let corrupt = [| false; true; false; false |] in
  let forged = String.make 600 '\x42' in
  let adversary_of _ =
    Adversary.make ~name:"forge" (fun _view ~sender:_ ~recipient:_ -> Some forged)
  in
  let check backend =
    let specs = auth_ca_specs ~n ~sessions ~adversary_of in
    let outcome =
      match backend with
      | `Sim -> Engine.run_sim ~n ~t ~corrupt specs
      | `Poll -> Engine.run_poll ~n ~t ~corrupt specs
    in
    List.iter
      (fun r ->
        match Engine.honest_outputs ~corrupt r with
        | [] -> Alcotest.fail "no honest outputs"
        | o :: rest ->
            List.iter
              (fun o' ->
                Alcotest.check Alcotest.bool
                  (Printf.sprintf "sid %d agreement under forgery" r.Engine.r_sid)
                  true (Bitstring.equal o o'))
              rest;
            (* Inputs were 100..139 over 16 bits; the output must decode into
               that band (the forger cannot inject a value). *)
            let lo = Bitstring.pad_to 16 (Bitstring.of_int 100)
            and hi = Bitstring.pad_to 16 (Bitstring.of_int 139) in
            Alcotest.check Alcotest.bool
              (Printf.sprintf "sid %d output in honest band" r.Engine.r_sid)
              true
              (Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0))
      outcome.Engine.sessions
  in
  check `Sim;
  check `Poll

(* Byte-identity pin for Pi_Z over the authenticated substrate at
   n=4, t=1: the SHA-256 and byte length of a passive and an equivocating
   run, each run its Det JSONL ([Obs.to_jsonl ~tier:Det]) followed by the
   honest outputs. The value was captured when Auth_ba became n parallel
   Dolev-Strong broadcasts plus the (t+1)-th smallest of the common view,
   and re-taken when FINDPREFIX began agreeing on windows of at most κ bits
   with Π_BA+ itself: the passive run went from 46 to 38 rounds and the
   equivocating one from 53 to 47 (no distribution rounds after a short
   window), with the outputs (-1016 and -1000) unchanged.
   Every run draws a fresh setup: XMSS signers are stateful. *)
let auth_pi_z_record () =
  let n = 4 and t = 1 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = Workload.sensor_readings (Prng.create 42) ~n ~base:(-1004) ~jitter:50 in
  String.concat "\n"
    (List.map
       (fun adversary ->
         let obs = Obs.create () in
         let setup =
           fresh_setup ~n ~capacity:(Auth.Auth_ba.required_capacity ~n ~instances:64) ()
         in
         let outcome =
           Sim.run ~obs ~setup:`Authenticated ~n ~t ~corrupt ~adversary (fun ctx ->
               let module B = (val Auth.Auth_ba.substrate setup) in
               let module CA = Convex.Ca_int.Make (B) in
               CA.run ctx inputs.(ctx.Ctx.me))
         in
         String.concat "\n"
           (Obs.to_jsonl ~tier:Obs.Det obs
           :: List.map Bigint.to_string (Sim.honest_outputs ~corrupt outcome)))
       [ Adversary.passive; Adversary.equivocate ~seed:8 ])

let test_pi_z_pin () =
  let s = auth_pi_z_record () in
  Alcotest.(check (pair string int))
    "pi_z over auth_ba n=4"
    ("761289bdc292b839ad2623ab94a3229b6f69625f7f84d8861e7e7c1f278f21a5", 41290)
    (Sha256.hex s, String.length s)

let suite =
  [
    Alcotest.test_case "unanimity at t<n/2 vs adversaries" `Quick test_validity_unanimous;
    Alcotest.test_case "agreement on mixed inputs" `Quick test_agreement_mixed_inputs;
    Alcotest.test_case "forged signatures rejected" `Quick test_forged_signatures_rejected;
    Alcotest.test_case "binary domain keeps honest bit" `Quick test_binary_domain_honest_input;
    Alcotest.test_case "round count matches model" `Quick test_rounds_model;
    Alcotest.test_case "substrate: Pi_Z over auth backend" `Quick test_substrate_pi_z;
    Alcotest.test_case "signing budget 2n per instance" `Quick test_capacity_model;
    Alcotest.test_case "engine: Auth-CA sessions sim = poll (K=8)" `Quick
      test_engine_auth_ca_sim_eq_poll;
    Alcotest.test_case "engine: Dolev-Strong sessions sim = poll" `Quick
      test_engine_dolev_strong_sessions;
    Alcotest.test_case "engine: forged signatures leave honest outputs intact" `Quick
      test_engine_auth_ca_forged_sigs;
    Alcotest.test_case "pi_z over auth_ba n=4 Det JSONL pin" `Quick test_pi_z_pin;
  ]
