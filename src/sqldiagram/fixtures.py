"""Example queries over three toy schemas, used by the test-suite and docs.

Bar scene:  Likes(drinker, beer) in UNIQUE_BEER_SET, Likes(person, drink) in
            SOME_LIKED_DRINK and ONLY_LIKED_DRINKS, Frequents(person, bar),
            Serves(bar, drink).
Sailors:    Sailor(sid, sname, ...), Reserves(sid, bid, day), Boat(bid, bname, color).
Students:   Student(sid, sname), Takes(sid, cid, semester), Class(cid, cname, department).
Actors:     Actor(aid, aname), Casts(aid, mid, role), Movie(mid, mname, director).
"""

# Drinkers who like a set of beers no other drinker likes exactly.
UNIQUE_BEER_SET = """\
SELECT L1.drinker
FROM Likes L1
WHERE NOT EXISTS
  (SELECT *
   FROM Likes L2
   WHERE L2.drinker <> L1.drinker
   AND NOT EXISTS
     (SELECT *
      FROM Likes L3
      WHERE L3.drinker = L2.drinker
      AND NOT EXISTS
        (SELECT *
         FROM Likes L4
         WHERE L4.drinker = L1.drinker
         AND L4.beer = L3.beer))
   AND NOT EXISTS
     (SELECT *
      FROM Likes L5
      WHERE L5.drinker = L1.drinker
      AND NOT EXISTS
        (SELECT *
         FROM Likes L6
         WHERE L6.drinker = L2.drinker
         AND L6.beer = L5.beer)))"""

# Persons who frequent some bar that serves some drink they like.
SOME_LIKED_DRINK = """\
SELECT F.person
FROM Frequents F, Likes L, Serves S
WHERE F.person = L.person
AND F.bar = S.bar
AND L.drink = S.drink"""

# Persons who frequent some bar that serves only drinks they like.
ONLY_LIKED_DRINKS = """\
SELECT F.person
FROM Frequents F
WHERE not exists
(SELECT *
FROM Serves S
WHERE S.bar = F.bar
AND not exists
(SELECT L.drink
FROM Likes L
WHERE L.person = F.person
AND S.drink = L.drink))"""

# Degenerate: the selection on F.bar sits inside the subquery although it
# only references the outer block, which hides a disjunction.
OWL_SELECTION_BURIED = """\
SELECT F.person
FROM Frequents F
WHERE NOT EXISTS
  (SELECT *
   FROM Serves S
   WHERE S.bar = F.bar
   AND F.bar = 'Owl')"""

SAILORS_NO_RED = ("SELECT S.sname FROM Sailor S WHERE NOT EXISTS"
                  "(SELECT * FROM Reserves R WHERE R.sid = S.sid AND EXISTS"
                  "(SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))")

SAILORS_ONLY_RED = ("SELECT S.sname FROM Sailor S WHERE NOT EXISTS"
                    "(SELECT * FROM Reserves R WHERE R.sid = S.sid AND NOT EXISTS"
                    "(SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))")

SAILORS_ALL_RED = ("SELECT S.sname FROM Sailor S WHERE NOT EXISTS"
                   "(SELECT * FROM Boat B WHERE B.color = 'red' AND NOT EXISTS"
                   "(SELECT * FROM Reserves R WHERE R.bid = B.bid AND R.sid = S.sid))")

STUDENTS_NO_ART = ("SELECT S.sname FROM Student S WHERE NOT EXISTS"
                   "(SELECT * FROM Takes T WHERE T.sid = S.sid AND EXISTS"
                   "(SELECT * FROM Class C WHERE C.department = 'art' AND C.cid = T.cid))")

STUDENTS_ONLY_ART = ("SELECT S.sname FROM Student S WHERE NOT EXISTS"
                     "(SELECT * FROM Takes T WHERE T.sid = S.sid AND NOT EXISTS"
                     "(SELECT * FROM Class C WHERE C.department = 'art' AND C.cid = T.cid))")

STUDENTS_ALL_ART = ("SELECT S.sname FROM Student S WHERE NOT EXISTS"
                    "(SELECT * FROM Class C WHERE C.department = 'art' AND NOT EXISTS"
                    "(SELECT * FROM Takes T WHERE T.cid = C.cid AND T.sid = S.sid))")

ACTORS_NO_HITCHCOCK = ("SELECT A.aname FROM Actor A WHERE NOT EXISTS"
                       "(SELECT * FROM Casts C WHERE C.aid = A.aid AND EXISTS"
                       "(SELECT * FROM Movie M WHERE M.director = 'Hitchcock' AND M.mid = C.mid))")

ACTORS_ONLY_HITCHCOCK = ("SELECT A.aname FROM Actor A WHERE NOT EXISTS"
                         "(SELECT * FROM Casts C WHERE C.aid = A.aid AND NOT EXISTS"
                         "(SELECT * FROM Movie M WHERE M.director = 'Hitchcock' AND M.mid = C.mid))")

ACTORS_ALL_HITCHCOCK = ("SELECT A.aname FROM Actor A WHERE NOT EXISTS"
                        "(SELECT * FROM Movie M WHERE M.director = 'Hitchcock' AND NOT EXISTS"
                        "(SELECT * FROM Casts C WHERE C.mid = M.mid AND C.aid = A.aid))")

# Three syntactic variants of "sailors who reserve only red boats" that
# must lower to the same logic tree.
ONLY_RED_NOT_EXISTS = SAILORS_ONLY_RED

ONLY_RED_NOT_IN = ("SELECT S.sname FROM Sailor S WHERE S.sid NOT IN"
                   "(SELECT R.sid FROM Reserves R WHERE R.bid NOT IN"
                   "(SELECT B.bid FROM Boat B WHERE B.color = 'red'))")

ONLY_RED_NOT_ANY = ("SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY"
                    "(SELECT R.sid FROM Reserves R WHERE NOT R.bid = ANY"
                    "(SELECT B.bid FROM Boat B WHERE B.color = 'red'))")

ONLY_RED_VARIANTS = (ONLY_RED_NOT_EXISTS, ONLY_RED_NOT_IN, ONLY_RED_NOT_ANY)

# The pattern grid: same logical shape down each column, different shapes
# across columns ("no X" / "only X" / "all X").
PATTERN_GRID = {
    "no": (SAILORS_NO_RED, STUDENTS_NO_ART, ACTORS_NO_HITCHCOCK),
    "only": (SAILORS_ONLY_RED, STUDENTS_ONLY_ART, ACTORS_ONLY_HITCHCOCK),
    "all": (SAILORS_ALL_RED, STUDENTS_ALL_ART, ACTORS_ALL_HITCHCOCK),
}

# Every well-formed fixture; all must pass validation.
VALID_QUERIES = {
    "unique_beer_set": UNIQUE_BEER_SET,
    "some_liked_drink": SOME_LIKED_DRINK,
    "only_liked_drinks": ONLY_LIKED_DRINKS,
    "sailors_no_red": SAILORS_NO_RED,
    "sailors_only_red": SAILORS_ONLY_RED,
    "sailors_all_red": SAILORS_ALL_RED,
    "students_no_art": STUDENTS_NO_ART,
    "students_only_art": STUDENTS_ONLY_ART,
    "students_all_art": STUDENTS_ALL_ART,
    "actors_no_hitchcock": ACTORS_NO_HITCHCOCK,
    "actors_only_hitchcock": ACTORS_ONLY_HITCHCOCK,
    "actors_all_hitchcock": ACTORS_ALL_HITCHCOCK,
}
