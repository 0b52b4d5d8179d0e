(* Pinned outcome fingerprints: (workload, benchmark seed) -> committed,
   aborted, msgs_sent summed over one pass. Regenerate with
   [dune exec perfbench/bench.exe -- --pin 0 63] after a change that is
   meant to alter behaviour. Seed 1 is the development seed and seed 2
   the held-out seed. *)

let table =
  [
    ("deep_hybrid_queue", 0, 775, 25, 29460);
    ("deep_hybrid_queue", 1, 792, 8, 26490);
    ("deep_hybrid_queue", 2, 772, 28, 28449);
    ("deep_hybrid_queue", 3, 782, 18, 27726);
    ("deep_hybrid_queue", 4, 767, 33, 28758);
    ("deep_hybrid_queue", 5, 773, 27, 29487);
    ("deep_hybrid_queue", 6, 787, 13, 27336);
    ("deep_hybrid_queue", 7, 785, 15, 27636);
    ("deep_hybrid_queue", 8, 795, 5, 25509);
    ("deep_hybrid_queue", 9, 787, 13, 28569);
    ("deep_hybrid_queue", 10, 767, 33, 30915);
    ("deep_hybrid_queue", 11, 780, 20, 28593);
    ("deep_hybrid_queue", 12, 779, 21, 27939);
    ("deep_hybrid_queue", 13, 771, 29, 27924);
    ("deep_hybrid_queue", 14, 782, 18, 28419);
    ("deep_hybrid_queue", 15, 784, 16, 27096);
    ("deep_hybrid_queue", 16, 770, 30, 30528);
    ("deep_hybrid_queue", 17, 794, 6, 25758);
    ("deep_hybrid_queue", 18, 776, 24, 27921);
    ("deep_hybrid_queue", 19, 768, 32, 30591);
    ("deep_hybrid_queue", 20, 779, 21, 28065);
    ("deep_hybrid_queue", 21, 785, 15, 26448);
    ("deep_hybrid_queue", 22, 785, 15, 27456);
    ("deep_hybrid_queue", 23, 786, 14, 27699);
    ("deep_hybrid_queue", 24, 787, 13, 25362);
    ("deep_hybrid_queue", 25, 782, 18, 28266);
    ("deep_hybrid_queue", 26, 772, 28, 30429);
    ("deep_hybrid_queue", 27, 776, 24, 27216);
    ("deep_hybrid_queue", 28, 782, 18, 28500);
    ("deep_hybrid_queue", 30, 762, 38, 29616);
    ("deep_hybrid_queue", 31, 789, 11, 26658);
    ("deep_hybrid_queue", 32, 782, 18, 27279);
    ("deep_hybrid_queue", 33, 785, 15, 27000);
    ("deep_hybrid_queue", 34, 774, 26, 30060);
    ("deep_hybrid_queue", 35, 786, 14, 28788);
    ("deep_hybrid_queue", 36, 780, 20, 27285);
    ("deep_hybrid_queue", 37, 784, 16, 27042);
    ("deep_hybrid_queue", 38, 774, 26, 28827);
    ("deep_hybrid_queue", 39, 770, 30, 29550);
    ("deep_hybrid_queue", 40, 781, 19, 29472);
    ("deep_hybrid_queue", 41, 782, 18, 28374);
    ("deep_hybrid_queue", 43, 788, 12, 27627);
    ("deep_hybrid_queue", 44, 784, 16, 28458);
    ("deep_hybrid_queue", 45, 771, 29, 30168);
    ("deep_hybrid_queue", 46, 791, 9, 26370);
    ("deep_hybrid_queue", 47, 754, 46, 31545);
    ("deep_hybrid_queue", 48, 776, 24, 28821);
    ("deep_hybrid_queue", 49, 782, 18, 27000);
    ("deep_hybrid_queue", 50, 780, 20, 27615);
    ("deep_hybrid_queue", 51, 800, 0, 25674);
    ("deep_hybrid_queue", 52, 773, 27, 29046);
    ("deep_hybrid_queue", 53, 767, 33, 27678);
    ("deep_hybrid_queue", 54, 787, 13, 29103);
    ("deep_hybrid_queue", 55, 781, 19, 28416);
    ("deep_hybrid_queue", 56, 793, 7, 24951);
    ("deep_hybrid_queue", 57, 772, 28, 30102);
    ("deep_hybrid_queue", 58, 782, 18, 27114);
    ("deep_hybrid_queue", 59, 768, 32, 29472);
    ("deep_hybrid_queue", 60, 774, 26, 27708);
    ("deep_hybrid_queue", 61, 790, 10, 26466);
    ("deep_hybrid_queue", 62, 769, 31, 31068);
    ("deep_hybrid_queue", 63, 767, 33, 29874);
    ("deep_static_bank", 0, 1693, 307, 81192);
    ("deep_static_bank", 1, 1464, 536, 104427);
    ("deep_static_bank", 2, 1692, 308, 85845);
    ("deep_static_bank", 3, 1642, 358, 88284);
    ("deep_static_bank", 4, 1716, 284, 84891);
    ("deep_static_bank", 5, 1578, 422, 89310);
    ("deep_static_bank", 6, 1699, 301, 83274);
    ("deep_static_bank", 7, 1647, 353, 83946);
    ("deep_static_bank", 8, 1707, 293, 82092);
    ("deep_static_bank", 9, 1674, 326, 80967);
    ("deep_static_bank", 10, 1698, 302, 83184);
    ("deep_static_bank", 11, 1649, 351, 83781);
    ("deep_static_bank", 12, 1596, 404, 88089);
    ("deep_static_bank", 13, 1545, 455, 92706);
    ("deep_static_bank", 14, 1672, 328, 81786);
    ("deep_static_bank", 15, 1674, 326, 82467);
    ("deep_static_bank", 16, 1644, 356, 83523);
    ("deep_static_bank", 17, 1506, 494, 95793);
    ("deep_static_bank", 18, 1695, 305, 81447);
    ("deep_static_bank", 19, 1695, 305, 81459);
    ("deep_static_bank", 20, 1691, 309, 84375);
    ("deep_static_bank", 21, 1646, 354, 83775);
    ("deep_static_bank", 22, 1686, 314, 84111);
    ("deep_static_bank", 23, 1660, 340, 84729);
    ("deep_static_bank", 24, 1715, 285, 82764);
    ("deep_static_bank", 25, 1692, 308, 80367);
    ("deep_static_bank", 26, 1665, 335, 81222);
    ("deep_static_bank", 27, 1683, 317, 82941);
    ("deep_static_bank", 28, 1705, 295, 82614);
    ("deep_static_bank", 30, 1633, 367, 84537);
    ("deep_static_bank", 31, 1640, 360, 87051);
    ("deep_static_bank", 32, 1677, 323, 82941);
    ("deep_static_bank", 33, 1703, 297, 82179);
    ("deep_static_bank", 34, 1688, 312, 80814);
    ("deep_static_bank", 35, 1610, 390, 86217);
    ("deep_static_bank", 36, 1665, 335, 81408);
    ("deep_static_bank", 37, 1631, 369, 87291);
    ("deep_static_bank", 38, 1691, 309, 82179);
    ("deep_static_bank", 39, 1600, 400, 89502);
    ("deep_static_bank", 40, 1684, 316, 81867);
    ("deep_static_bank", 41, 1531, 469, 94764);
    ("deep_static_bank", 43, 1587, 413, 90693);
    ("deep_static_bank", 44, 1651, 349, 81102);
    ("deep_static_bank", 45, 1681, 319, 83583);
    ("deep_static_bank", 46, 1628, 372, 85719);
    ("deep_static_bank", 47, 1687, 313, 81957);
    ("deep_static_bank", 48, 1701, 299, 81195);
    ("deep_static_bank", 49, 1664, 336, 82680);
    ("deep_static_bank", 50, 1660, 340, 86700);
    ("deep_static_bank", 51, 1695, 305, 82218);
    ("deep_static_bank", 52, 1712, 288, 82401);
    ("deep_static_bank", 53, 1668, 332, 82863);
    ("deep_static_bank", 54, 1627, 373, 84327);
    ("deep_static_bank", 55, 1709, 291, 81468);
    ("deep_static_bank", 56, 1683, 317, 82119);
    ("deep_static_bank", 57, 1609, 391, 87138);
    ("deep_static_bank", 58, 1571, 429, 92730);
    ("deep_static_bank", 59, 1608, 392, 86019);
    ("deep_static_bank", 60, 1629, 371, 81639);
    ("deep_static_bank", 61, 1680, 320, 81384);
    ("deep_static_bank", 62, 1610, 390, 86025);
    ("deep_static_bank", 63, 1670, 330, 84300);
    ("gray_sweep", 0, 845, 55, 154734);
    ("gray_sweep", 1, 852, 48, 153798);
    ("gray_sweep", 2, 843, 57, 153973);
    ("gray_sweep", 3, 836, 64, 152967);
    ("gray_sweep", 4, 828, 72, 156084);
    ("gray_sweep", 5, 819, 81, 156209);
    ("gray_sweep", 6, 836, 64, 153472);
    ("gray_sweep", 7, 839, 61, 154472);
    ("gray_sweep", 8, 840, 60, 155273);
    ("gray_sweep", 9, 841, 59, 153224);
    ("gray_sweep", 10, 847, 53, 153826);
    ("gray_sweep", 11, 825, 75, 155866);
    ("gray_sweep", 12, 839, 61, 155527);
    ("gray_sweep", 13, 825, 75, 154960);
    ("gray_sweep", 14, 820, 80, 156996);
    ("gray_sweep", 15, 850, 50, 154597);
    ("gray_sweep", 16, 866, 34, 155826);
    ("gray_sweep", 17, 813, 87, 158508);
    ("gray_sweep", 18, 840, 60, 154455);
    ("gray_sweep", 19, 845, 55, 154234);
    ("gray_sweep", 20, 838, 62, 155724);
    ("gray_sweep", 21, 859, 41, 152120);
    ("gray_sweep", 22, 841, 59, 154107);
    ("gray_sweep", 23, 839, 61, 150499);
    ("gray_sweep", 24, 843, 57, 155579);
    ("gray_sweep", 25, 854, 46, 153884);
    ("gray_sweep", 26, 851, 49, 155057);
    ("gray_sweep", 27, 831, 69, 154697);
    ("gray_sweep", 28, 799, 101, 157255);
    ("gray_sweep", 30, 839, 61, 156574);
    ("gray_sweep", 31, 843, 57, 154268);
    ("gray_sweep", 32, 815, 85, 156402);
    ("gray_sweep", 33, 871, 29, 150301);
    ("gray_sweep", 34, 809, 91, 156810);
    ("gray_sweep", 35, 837, 63, 152488);
    ("gray_sweep", 36, 840, 60, 151906);
    ("gray_sweep", 37, 829, 71, 155528);
    ("gray_sweep", 38, 820, 80, 155796);
    ("gray_sweep", 39, 815, 85, 157579);
    ("gray_sweep", 40, 827, 73, 155127);
    ("gray_sweep", 41, 814, 86, 154426);
    ("gray_sweep", 43, 826, 74, 157084);
    ("gray_sweep", 44, 815, 85, 156106);
    ("gray_sweep", 45, 825, 75, 156409);
    ("gray_sweep", 46, 821, 79, 155092);
    ("gray_sweep", 47, 853, 47, 153649);
    ("gray_sweep", 48, 852, 48, 152940);
    ("gray_sweep", 49, 820, 80, 154685);
    ("gray_sweep", 50, 864, 36, 155123);
    ("gray_sweep", 51, 822, 78, 156031);
    ("gray_sweep", 52, 820, 80, 155910);
    ("gray_sweep", 53, 839, 61, 154379);
    ("gray_sweep", 54, 807, 93, 155797);
    ("gray_sweep", 55, 831, 69, 153793);
    ("gray_sweep", 56, 829, 71, 157157);
    ("gray_sweep", 57, 838, 62, 153094);
    ("gray_sweep", 58, 852, 48, 155625);
    ("gray_sweep", 59, 853, 47, 155185);
    ("gray_sweep", 60, 821, 79, 157177);
    ("gray_sweep", 61, 830, 70, 152291);
    ("gray_sweep", 62, 851, 49, 155276);
    ("gray_sweep", 63, 859, 41, 151476);
    ("fault_sweep", 0, 1908, 1692, 92150);
    ("fault_sweep", 1, 1879, 1721, 90557);
    ("fault_sweep", 2, 1913, 1687, 88277);
    ("fault_sweep", 3, 1820, 1780, 88914);
    ("fault_sweep", 4, 1758, 1842, 82481);
    ("fault_sweep", 5, 1879, 1721, 89429);
    ("fault_sweep", 6, 1893, 1707, 84878);
    ("fault_sweep", 7, 1905, 1695, 89623);
    ("fault_sweep", 8, 1772, 1828, 86832);
    ("fault_sweep", 9, 1867, 1733, 87166);
    ("fault_sweep", 10, 1878, 1722, 89558);
    ("fault_sweep", 11, 1872, 1728, 89860);
    ("fault_sweep", 12, 1907, 1693, 88647);
    ("fault_sweep", 13, 1730, 1870, 84016);
    ("fault_sweep", 14, 1821, 1779, 85123);
    ("fault_sweep", 15, 1886, 1714, 91697);
    ("fault_sweep", 16, 1848, 1752, 89164);
    ("fault_sweep", 17, 1829, 1771, 87948);
    ("fault_sweep", 18, 1909, 1691, 90721);
    ("fault_sweep", 19, 1754, 1846, 84742);
    ("fault_sweep", 20, 1851, 1749, 90218);
    ("fault_sweep", 21, 1813, 1787, 86361);
    ("fault_sweep", 22, 1822, 1778, 84125);
    ("fault_sweep", 23, 1910, 1690, 88490);
    ("fault_sweep", 24, 1782, 1818, 87781);
    ("fault_sweep", 25, 1783, 1817, 86805);
    ("fault_sweep", 26, 1965, 1635, 91279);
    ("fault_sweep", 27, 1845, 1755, 90226);
    ("fault_sweep", 28, 1952, 1648, 90809);
    ("fault_sweep", 30, 1960, 1640, 91973);
    ("fault_sweep", 31, 1706, 1894, 86106);
    ("fault_sweep", 32, 1891, 1709, 90484);
    ("fault_sweep", 33, 1743, 1857, 89176);
    ("fault_sweep", 34, 1882, 1718, 86555);
    ("fault_sweep", 35, 1820, 1780, 87168);
    ("fault_sweep", 36, 1936, 1664, 93055);
    ("fault_sweep", 37, 1937, 1663, 89875);
    ("fault_sweep", 38, 1898, 1702, 91182);
    ("fault_sweep", 39, 1777, 1823, 84382);
    ("fault_sweep", 40, 1891, 1709, 89642);
    ("fault_sweep", 41, 1746, 1854, 89188);
    ("fault_sweep", 43, 1794, 1806, 90125);
    ("fault_sweep", 44, 1892, 1708, 88127);
    ("fault_sweep", 45, 1689, 1911, 90038);
    ("fault_sweep", 46, 1939, 1661, 92955);
    ("fault_sweep", 47, 1954, 1646, 88053);
    ("fault_sweep", 48, 1793, 1807, 85775);
    ("fault_sweep", 49, 1915, 1685, 87947);
    ("fault_sweep", 50, 1890, 1710, 88002);
    ("fault_sweep", 51, 1823, 1777, 88475);
    ("fault_sweep", 52, 1861, 1739, 90537);
    ("fault_sweep", 53, 1794, 1806, 85364);
    ("fault_sweep", 54, 1963, 1637, 90591);
    ("fault_sweep", 55, 1784, 1816, 85773);
    ("fault_sweep", 56, 1845, 1755, 85757);
    ("fault_sweep", 57, 1963, 1637, 89991);
    ("fault_sweep", 58, 1848, 1752, 86062);
    ("fault_sweep", 59, 1787, 1813, 87641);
    ("fault_sweep", 60, 1769, 1831, 85169);
    ("fault_sweep", 61, 1814, 1786, 88431);
    ("fault_sweep", 62, 1831, 1769, 87927);
    ("fault_sweep", 63, 1858, 1742, 88280);
  ]

let find ~workload ~seed =
  List.find_map
    (fun (w, s, c, a, m) ->
      if String.equal w workload && s = seed then
        Some { Workloads.f_committed = c; f_aborted = a; f_msgs = m }
      else None)
    table

(* The benchmark seeds a run can take: [--seed N] runs benchmark seed
   [select N], so every run is checked against a pinned fingerprint.
   Seeds 29 and 42 are left out: on them [fault_sweep] and
   [deep_static_bank] hit known atomicity violations of the program
   (README.md, "Defects found while choosing the workloads"). *)
let excluded = [ 29; 42 ]

let seeds =
  Array.of_list (List.filter (fun s -> not (List.mem s excluded)) (List.init 64 Fun.id))

let select n =
  let k = Array.length seeds in
  seeds.(((n mod k) + k) mod k)
