let drive step =
  let r = ref 3 in
  while !r > 0 do Robust.Context.poll (); step (); decr r done
let walk n = let rec go i = if i > 0 then go (i - 1) in go n
let run inst = ignore inst; drive (fun () -> walk 3)
