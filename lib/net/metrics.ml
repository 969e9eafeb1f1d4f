(* Communication accounting of one session, filled from its recording handle
   when the session retires. *)

type t = {
  rounds : int;
  honest_bits : int;
  honest_msgs : int;
  byz_bits : int;
  byz_msgs : int;
  label_bits : (string * int) list;
}

let of_obs ~rounds h =
  let c = Obs.session_counts h in
  {
    rounds;
    honest_bits = c.Obs.honest_bits;
    honest_msgs = c.Obs.honest_msgs;
    byz_bits = c.Obs.byz_bits;
    byz_msgs = c.Obs.byz_msgs;
    label_bits = Obs.session_label_bits h;
  }

let labels m = m.label_bits
