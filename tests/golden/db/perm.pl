% Permutations by selection.
perm([],[]).
perm(L,[H|T]):- sel(H,L,R), perm(R,T).
sel(X,[X|T],T).
sel(X,[H|T],[H|R]):- sel(X,T,R).
