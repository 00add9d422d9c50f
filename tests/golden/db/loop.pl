% A loop with no way out.
p :- p.
