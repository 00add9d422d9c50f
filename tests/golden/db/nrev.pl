% Naive reverse.
nrev([],[]).
nrev([H|T],R):- nrev(T,RT), append(RT,[H],R).
append([],L,L).
append([H|T],L2,[H|L3]):- append(T,L2,L3).
